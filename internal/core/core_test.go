package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// Paper mappings of Figure 1(c,d); core order A,B,E,F; tiles t1..t4=0..3.
var (
	mapA = mapping.Mapping{1, 0, 3, 2}
	mapB = mapping.Mapping{3, 0, 1, 2}
)

func paperSetup(t *testing.T) (*topology.Mesh, noc.Config, energy.Tech, *model.CDCG) {
	t.Helper()
	mesh, err := topology.NewMesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return mesh, noc.PaperExample(), energy.PaperExample(), model.PaperExampleCDCG()
}

func almostEq(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) || d == 0
}

// Figure 2: the CWM evaluation cannot distinguish the two mappings — both
// price at exactly 390 pJ.
func TestCWMFigure2Energy(t *testing.T) {
	mesh, cfg, tech, g := paperSetup(t)
	cwm, err := NewCWM(mesh, cfg, tech, g.ToCWG())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mp   mapping.Mapping
	}{{"a", mapA}, {"b", mapB}} {
		name, mp := tc.name, tc.mp
		got, err := cwm.Cost(mp)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, 390e-12) {
			t.Errorf("CWM cost of mapping %s = %g, want 390e-12", name, got)
		}
	}
}

// Figure 2(a): per-resource cost variables of mapping (a).
func TestCWMFigure2Annotation(t *testing.T) {
	mesh, cfg, tech, g := paperSetup(t)
	cwm, err := NewCWM(mesh, cfg, tech, g.ToCWG())
	if err != nil {
		t.Fatal(err)
	}
	rb, lb, cb, err := cwm.Traffic(mapA)
	if err != nil {
		t.Fatal(err)
	}
	// Routers: t1=85 (AB+AF+BF+FB), t2=65 (AB+AF+EA), t3=70 (AF+BF+FB),
	// t4=35 (EA) — the vertex labels of Figure 2(a).
	wantR := []int64{85, 65, 70, 35}
	for i, w := range wantR {
		if rb[i] != w {
			t.Errorf("router t%d bits = %d, want %d", i+1, rb[i], w)
		}
	}
	link := func(a, b topology.TileID) int64 {
		li, ok := mesh.LinkIndex(a, b)
		if !ok {
			t.Fatalf("no link %d->%d", a, b)
		}
		return lb[li]
	}
	// Edges: t2->t1 = 30 (AB+AF), t1->t3 = 55 (AF+BF), t4->t2 = 35 (EA),
	// t3->t1 = 15 (FB); all others 0.
	if link(1, 0) != 30 || link(0, 2) != 55 || link(3, 1) != 35 || link(2, 0) != 15 {
		t.Errorf("link bits: t2->t1=%d t1->t3=%d t4->t2=%d t3->t1=%d",
			link(1, 0), link(0, 2), link(3, 1), link(2, 0))
	}
	if link(0, 1) != 0 || link(2, 3) != 0 || link(1, 3) != 0 || link(3, 2) != 0 {
		t.Error("unused links carry traffic")
	}
	if cb != 240 {
		t.Errorf("core bits = %d, want 240", cb)
	}
	// Sum of cost variables × bit energies = 390 pJ (equation (3)).
	var sumR, sumL int64
	for _, b := range rb {
		sumR += b
	}
	for _, b := range lb {
		sumL += b
	}
	if got := tech.DynamicFromTraffic(sumR, sumL, 0); !almostEq(got, 390e-12) {
		t.Errorf("aggregated energy = %g, want 390e-12", got)
	}
}

// Figure 3: CDCM distinguishes the mappings: 400 pJ / 100 ns vs
// 399 pJ / 90 ns.
func TestCDCMFigure3Metrics(t *testing.T) {
	mesh, cfg, tech, g := paperSetup(t)
	cdcm, err := NewCDCM(mesh, cfg, tech, g)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := cdcm.Evaluate(mapA)
	if err != nil {
		t.Fatal(err)
	}
	if ma.ExecCycles != 100 || !almostEq(ma.ExecNS, 100) {
		t.Errorf("mapping a texec = %d cycles / %g ns, want 100", ma.ExecCycles, ma.ExecNS)
	}
	if !almostEq(ma.Total(), 400e-12) {
		t.Errorf("mapping a ENoC = %g, want 400e-12", ma.Total())
	}
	mb, err := cdcm.Evaluate(mapB)
	if err != nil {
		t.Fatal(err)
	}
	if mb.ExecCycles != 90 {
		t.Errorf("mapping b texec = %d, want 90", mb.ExecCycles)
	}
	if !almostEq(mb.Total(), 399e-12) {
		t.Errorf("mapping b ENoC = %g, want 399e-12", mb.Total())
	}
	// "Mapping (a) consumes 1% more energy than (b)".
	if ratio := ma.Total() / mb.Total(); math.Abs(ratio-400.0/399.0) > 1e-9 {
		t.Errorf("energy ratio = %v, want 400/399", ratio)
	}
	// Dynamic components agree with CWM exactly (equations (3) vs (4)).
	if !almostEq(ma.Energy.Dynamic, 390e-12) || !almostEq(mb.Energy.Dynamic, 390e-12) {
		t.Errorf("dynamic = %g / %g, want 390e-12", ma.Energy.Dynamic, mb.Energy.Dynamic)
	}
	if ma.ContentionCycles != 7 || mb.ContentionCycles != 0 {
		t.Errorf("contention = %d / %d, want 7 / 0", ma.ContentionCycles, mb.ContentionCycles)
	}
}

func TestCWMCDCMDynamicAgreeOnRandomMappings(t *testing.T) {
	mesh, cfg, tech, g := paperSetup(t)
	cwm, _ := NewCWM(mesh, cfg, tech, g.ToCWG())
	cdcm, _ := NewCDCM(mesh, cfg, tech, g)
	perms := []mapping.Mapping{
		{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2},
	}
	for _, mp := range perms {
		cw, err := cwm.Cost(mp)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := cdcm.Evaluate(mp)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(cw, cd.Energy.Dynamic) {
			t.Errorf("mapping %v: CWM %g != CDCM dynamic %g", mp, cw, cd.Energy.Dynamic)
		}
	}
}

func TestExploreESFindsOptimum(t *testing.T) {
	mesh, cfg, tech, g := paperSetup(t)
	res, err := Explore(StrategyCDCM, mesh, cfg, tech, g, Options{Method: MethodES})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Search.Certified {
		t.Fatal("ES on 2x2 must certify")
	}
	// The paper's mapping (b) prices at 399 pJ; the certified optimum can
	// only be at or below that.
	if res.Search.BestCost > 399e-12+1e-15 {
		t.Fatalf("certified optimum %g above paper mapping (b) 399e-12", res.Search.BestCost)
	}
	if res.Metrics.ExecCycles > 90 {
		// Lowest-energy mapping need not have lowest texec, but on this
		// instance static dominates ties: check it stays competitive.
		t.Logf("note: optimum texec = %d", res.Metrics.ExecCycles)
	}
}

func TestExploreSAMatchesESOnPaperExample(t *testing.T) {
	mesh, cfg, tech, g := paperSetup(t)
	es, err := Explore(StrategyCDCM, mesh, cfg, tech, g, Options{Method: MethodES})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := Explore(StrategyCDCM, mesh, cfg, tech, g, Options{Method: MethodSA, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(sa.Search.BestCost, es.Search.BestCost) {
		t.Fatalf("SA %g != ES %g on a 24-point space", sa.Search.BestCost, es.Search.BestCost)
	}
}

func TestExploreAllMethodsRun(t *testing.T) {
	mesh, cfg, tech, g := paperSetup(t)
	for _, m := range []Method{MethodSA, MethodES, MethodRandom, MethodHill, MethodTabu} {
		res, err := Explore(StrategyCWM, mesh, cfg, tech, g, Options{Method: m, Seed: 1, TempSteps: 10})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if err := res.Best.Validate(4); err != nil {
			t.Fatalf("%s: invalid mapping: %v", m, err)
		}
		if res.Metrics.ExecCycles <= 0 {
			t.Fatalf("%s: no metrics", m)
		}
	}
}

func TestCompareModelsProtocol(t *testing.T) {
	mesh, cfg, _, g := paperSetup(t)
	cmp, err := CompareModels(mesh, cfg, g, CompareOptions{
		Options: Options{Method: MethodES},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.CWMMetrics) != 2 || len(cmp.CDCMMetrics) != 2 {
		t.Fatalf("expected 2 reporting techs, got %d/%d", len(cmp.CWMMetrics), len(cmp.CDCMMetrics))
	}
	for _, tech := range []string{"0.35um", "0.07um"} {
		if _, ok := cmp.ECS[tech]; !ok {
			t.Fatalf("missing ECS for %s", tech)
		}
	}
	// ES under CDCM is the certified ENoC optimum per tech, so ECS must
	// be >= 0 everywhere.
	for tech, ecs := range cmp.ECS {
		if ecs < 0 {
			t.Fatalf("certified CDCM worse than CWM at %s: %g", tech, ecs)
		}
	}
	// The CWM winner is one mapping: its texec is tech independent.
	if cmp.CWMMetrics["0.35um"].ExecCycles != cmp.CWMMetrics["0.07um"].ExecCycles {
		t.Fatal("CWM texec depends on pricing tech")
	}
	// Each tech has its own CDCM winner.
	if len(cmp.CDCMMappings) != 2 {
		t.Fatalf("CDCM winners = %d, want one per tech", len(cmp.CDCMMappings))
	}
	if cmp.CWMEvaluations == 0 || cmp.CDCMEvaluations == 0 {
		t.Fatal("evaluation counts missing")
	}
}

func TestNewCWMValidation(t *testing.T) {
	mesh, cfg, tech, g := paperSetup(t)
	cwg := g.ToCWG()
	if _, err := NewCWM(nil, cfg, tech, cwg); err == nil {
		t.Error("nil mesh accepted")
	}
	bad := cfg
	bad.LinkCycles = 0
	if _, err := NewCWM(mesh, bad, tech, cwg); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := NewCWM(mesh, cfg, energy.Tech{ERbit: -1}, cwg); err == nil {
		t.Error("bad tech accepted")
	}
	if _, err := NewCWM(mesh, cfg, tech, &model.CWG{}); err == nil {
		t.Error("empty CWG accepted")
	}
	small, _ := topology.NewMesh(1, 2)
	if _, err := NewCWM(small, cfg, tech, cwg); err == nil {
		t.Error("oversubscribed mesh accepted")
	}
	cwm, err := NewCWM(mesh, cfg, tech, cwg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cwm.Cost(mapping.Mapping{0}); err == nil {
		t.Error("short mapping accepted by Cost")
	}
	if _, _, _, err := cwm.Traffic(mapping.Mapping{0, 0, 1, 2}); err == nil {
		t.Error("invalid mapping accepted by Traffic")
	}
}

func TestNewCDCMValidation(t *testing.T) {
	mesh, cfg, _, g := paperSetup(t)
	if _, err := NewCDCM(mesh, cfg, energy.Tech{PSRouter: -1}, g); err == nil {
		t.Error("bad tech accepted")
	}
	if _, err := NewCDCM(nil, cfg, energy.PaperExample(), g); err == nil {
		t.Error("nil mesh accepted")
	}
}

func TestParseMethodAndStrings(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want Method
	}{
		{"sa", MethodSA}, {"es", MethodES}, {"exhaustive", MethodES},
		{"random", MethodRandom}, {"hill", MethodHill}, {"tabu", MethodTabu},
	} {
		s, want := tc.s, tc.want
		got, err := ParseMethod(s)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMethod("genetic"); err == nil {
		t.Error("unknown method accepted")
	}
	if StrategyCWM.String() != "CWM" || StrategyCDCM.String() != "CDCM" || StrategyPareto.String() != "pareto" {
		t.Error("Strategy.String mismatch")
	}
	if MethodSA.String() != "SA" || Method(99).String() != "?" {
		t.Error("Method.String mismatch")
	}
}

// TestStrategyRoundTrip walks every defined Strategy value (stopping at
// the "?" sentinel) and checks ParseStrategy inverts String exactly, so
// a newly added strategy cannot ship without a CLI spelling.
func TestStrategyRoundTrip(t *testing.T) {
	n := 0
	for s := Strategy(0); s.String() != "?"; s++ {
		n++
		name := s.String()
		got, err := ParseStrategy(name)
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, s)
		}
		// Both case spellings parse.
		if got, err := ParseStrategy(strings.ToLower(name)); err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", strings.ToLower(name), got, err, s)
		}
		if got, err := ParseStrategy(strings.ToUpper(name)); err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", strings.ToUpper(name), got, err, s)
		}
	}
	if n != 4 {
		t.Errorf("walked %d strategies before the ? sentinel, want 4 (CWM, CDCM, pareto, resilience)", n)
	}
	if Strategy(n).String() != "?" {
		t.Errorf("Strategy(%d).String() = %q, want the ? sentinel", n, Strategy(n).String())
	}
	if _, err := ParseStrategy("?"); err == nil {
		t.Error("ParseStrategy accepted the ? sentinel")
	}
	if _, err := ParseStrategy("ilp"); err == nil {
		t.Error("ParseStrategy accepted an unknown strategy")
	}
}

func TestSimulateExposesRawResult(t *testing.T) {
	mesh, cfg, tech, g := paperSetup(t)
	cdcm, err := NewCDCM(mesh, cfg, tech, g)
	if err != nil {
		t.Fatal(err)
	}
	raw, metrics, err := cdcm.Simulate(mapA)
	if err != nil {
		t.Fatal(err)
	}
	if raw.ExecCycles != metrics.ExecCycles {
		t.Fatal("raw and priced texec disagree")
	}
	if len(raw.Packets) != g.NumPackets() {
		t.Fatal("raw packet schedules missing")
	}
}

// TestSimulateRecordsOccupancy: Simulate records occupancies with no
// flag set, equal to a run on a fresh recording scratch, and its Result
// is not touched by later pricings on the same evaluator.
func TestSimulateRecordsOccupancy(t *testing.T) {
	mesh, cfg, tech, g := paperSetup(t)
	cdcm, err := NewCDCM(mesh, cfg, tech, g)
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err := cdcm.Simulate(mapA)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := wormhole.NewSimulator(mesh, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScratch()
	sc.RecordOccupancy = true
	want, err := sim.RunScratch(mapA, sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cdcm.Cost(mapping.Mapping{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(raw, want) {
		t.Fatal("Simulate diverges from a recording scratch run")
	}
	if len(raw.Occupancies(wormhole.KindRouter, 0)) == 0 {
		t.Fatal("Simulate recorded no occupancies")
	}
}
