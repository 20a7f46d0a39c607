package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/search"
	"repro/internal/topology"
)

// resilienceSetup builds a 3x3 instance with a pinned non-empty fault
// set (0.15/seed 2 generates three failed link pairs on a 3x3).
func resilienceSetup(t *testing.T) (*topology.Mesh, noc.Config, *model.CDCG, *topology.FaultSet) {
	t.Helper()
	mesh, err := topology.NewMesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := topology.GenerateFaults(mesh, 0.15, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Empty() {
		t.Fatal("fault pin (0.15, seed 2) became empty; pick a different seed")
	}
	rng := rand.New(rand.NewSource(3))
	g := &model.CDCG{Cores: model.MakeCores(6)}
	for i := 0; i < 24; i++ {
		s := model.CoreID(rng.Intn(6))
		d := model.CoreID(rng.Intn(6))
		for d == s {
			d = model.CoreID(rng.Intn(6))
		}
		g.Packets = append(g.Packets, model.Packet{
			ID: model.PacketID(i), Src: s, Dst: d,
			Compute: int64(rng.Intn(12)), Bits: 20 + int64(rng.Intn(200)),
		})
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return mesh, noc.Default(), g, fs
}

// TestResilienceCollapseIdentity pins the scalar/vector bit-identity the
// Pareto engine relies on: Cost(mp) == CollapseWeights · ComponentsInto
// exactly, and the axes and weights are well-formed.
func TestResilienceCollapseIdentity(t *testing.T) {
	mesh, cfg, g, fs := resilienceSetup(t)
	r, err := NewResilience(mesh, cfg, energy.Tech007, g, fs)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Axes(); !reflect.DeepEqual(got, []string{"total_j", "worst_fault_cy"}) {
		t.Fatalf("axes %v", got)
	}
	w := r.CollapseWeights()
	if len(w) != 2 || w[0] != 1 || w[1] <= 0 {
		t.Fatalf("collapse weights %v", w)
	}
	rng := rand.New(rand.NewSource(9))
	comps := make([]float64, 2)
	for trial := 0; trial < 10; trial++ {
		mp, err := mapping.Random(rng, 6, 9)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := r.Cost(mp)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ComponentsInto(mp, comps); err != nil {
			t.Fatal(err)
		}
		if collapsed := search.Collapse(w, comps); cost != collapsed {
			t.Fatalf("Cost %v != Collapse %v (components %v)", cost, collapsed, comps)
		}
		if comps[1] < float64(0) {
			t.Fatalf("negative worst latency %v", comps[1])
		}
	}
}

// TestResilienceCloneDeterministic: clones price identically to the
// original — the property the parallel lanes rely on.
func TestResilienceCloneDeterministic(t *testing.T) {
	mesh, cfg, g, fs := resilienceSetup(t)
	r, err := NewResilience(mesh, cfg, energy.Tech007, g, fs)
	if err != nil {
		t.Fatal(err)
	}
	clone := r.Clone()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		mp, err := mapping.Random(rng, 6, 9)
		if err != nil {
			t.Fatal(err)
		}
		a, err := r.Cost(mp)
		if err != nil {
			t.Fatal(err)
		}
		b, err := clone.Cost(mp)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("clone cost %v != original %v", b, a)
		}
	}
}

// TestResilienceUnreachablePenalty pins the documented penalty: a fault
// set whose single element partitions every mapping scores the scenario
// at UnreachablePenaltyFactor × intact texec.
func TestResilienceUnreachablePenalty(t *testing.T) {
	mesh, err := topology.NewMesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Failing router 3 partitions nothing by itself — routes avoid it —
	// but any mapping placing a core there is unreachable. Use a failed
	// router and a mapping on top of it.
	fs := topology.NewFaultSet(mesh)
	if err := fs.FailRouter(3); err != nil {
		t.Fatal(err)
	}
	g := &model.CDCG{
		Cores:   model.MakeCores(2),
		Packets: []model.Packet{{ID: 0, Src: 0, Dst: 1, Compute: 2, Bits: 16}},
	}
	r, err := NewResilience(mesh, noc.Default(), energy.Tech007, g, fs)
	if err != nil {
		t.Fatal(err)
	}
	mp := mapping.Mapping{0, 3} // core 1 sits on the failed router's tile
	m0, err := r.intact.Evaluate(mp)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := r.Score(mp)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Unreachable != 1 {
		t.Fatalf("unreachable count %d", sc.Unreachable)
	}
	want := int64(UnreachablePenaltyFactor) * m0.ExecCycles
	if sc.WorstExecCycles != want {
		t.Fatalf("worst texec %d, want penalty %d", sc.WorstExecCycles, want)
	}
	if sc.Impacts[0].ExecCycles != want || !sc.Impacts[0].Unreachable {
		t.Fatalf("impact %+v", sc.Impacts[0])
	}
	// The penalty is priced as intact dynamic energy plus static energy
	// over the penalty time, bit for bit.
	wantJ := m0.Energy.Dynamic + energy.Tech007.StaticEnergy(mesh.NumTiles(), noc.Default().CyclesToSeconds(want))
	if got := sc.Impacts[0].TotalJ; math.Float64bits(got) != math.Float64bits(wantJ) {
		t.Fatalf("penalty energy %.17g, want %.17g", got, wantJ)
	}
	if sc.Score >= 100/float64(UnreachablePenaltyFactor)+1e-9 {
		t.Fatalf("score %v not pulled down by the penalty", sc.Score)
	}
	if len(sc.Recommendations) == 0 {
		t.Fatal("no recommendation for a partitioned mapping")
	}
	// The same penalty must drive the vector components.
	comps := make([]float64, 2)
	if err := r.ComponentsInto(mp, comps); err != nil {
		t.Fatal(err)
	}
	if comps[1] != float64(want) {
		t.Fatalf("component worst latency %v, want %v", comps[1], float64(want))
	}
	// A mapping avoiding the failed tile keeps a perfect score here (the
	// 2x2 loses no connectivity when routes detour around router 3).
	good, err := r.Score(mapping.Mapping{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if good.Unreachable != 0 {
		t.Fatalf("mapping off the failed router still unreachable: %+v", good)
	}
}

// TestResilienceValidation: empty fault sets are rejected by the
// objective and by StrategyResilience.
func TestResilienceValidation(t *testing.T) {
	mesh, cfg, g, _ := resilienceSetup(t)
	if _, err := NewResilience(mesh, cfg, energy.Tech007, g, nil); err == nil {
		t.Fatal("nil fault set accepted")
	}
	if _, err := NewResilience(mesh, cfg, energy.Tech007, g, topology.NewFaultSet(mesh)); err == nil {
		t.Fatal("empty fault set accepted")
	}
	if _, err := Explore(StrategyResilience, mesh, cfg, energy.Tech007, g, Options{Method: MethodSA, Seed: 1, TempSteps: 4}); err == nil {
		t.Fatal("StrategyResilience without faults accepted")
	}
}

// TestExploreResilienceDeterministicAcrossWorkers extends the tentpole
// determinism invariant to the resilience objective: fixed seed, any
// Workers value, bit-identical winner, cost and degradation report.
func TestExploreResilienceDeterministicAcrossWorkers(t *testing.T) {
	mesh, cfg, g, fs := resilienceSetup(t)
	opts := Options{Method: MethodSA, Seed: 5, TempSteps: 6, MovesPerTemp: 10, Restarts: 3, Faults: fs}
	var ref *ExploreResult
	for _, workers := range []int{1, 2, 4} {
		o := opts
		o.Workers = workers
		res, err := Explore(StrategyResilience, mesh, cfg, energy.Tech007, g, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Resilience == nil {
			t.Fatalf("workers=%d: no resilience report", workers)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !exploreEqual(ref, res) {
			t.Fatalf("workers=%d diverged: best %g vs %g", workers, res.Search.BestCost, ref.Search.BestCost)
		}
		if !reflect.DeepEqual(ref.Resilience, res.Resilience) {
			t.Fatalf("workers=%d: resilience report diverged", workers)
		}
	}
}

// TestExploreAttachesResilienceAnyStrategy: a non-empty fault set makes
// every strategy attach a degradation report for its winner without
// changing the search itself; nil faults attach nothing and leave the
// result bit-identical to the historical behaviour.
func TestExploreAttachesResilienceAnyStrategy(t *testing.T) {
	mesh, cfg, g, fs := resilienceSetup(t)
	base := Options{Method: MethodSA, Seed: 7, TempSteps: 6, MovesPerTemp: 10}
	for _, strat := range []Strategy{StrategyCWM, StrategyCDCM} {
		intact, err := Explore(strat, mesh, cfg, energy.Tech007, g, base)
		if err != nil {
			t.Fatal(err)
		}
		if intact.Resilience != nil {
			t.Fatalf("%s: resilience report without faults", strat)
		}
		withFaults := base
		withFaults.Faults = fs
		scored, err := Explore(strat, mesh, cfg, energy.Tech007, g, withFaults)
		if err != nil {
			t.Fatal(err)
		}
		if scored.Resilience == nil {
			t.Fatalf("%s: no resilience report with faults", strat)
		}
		if scored.Resilience.FaultKey != fs.Key() {
			t.Fatalf("%s: report covers %q, want %q", strat, scored.Resilience.FaultKey, fs.Key())
		}
		// Scoring is observation only: the search outcome is untouched.
		if !exploreEqual(intact, scored) {
			t.Fatalf("%s: attaching a fault set changed the search outcome", strat)
		}
	}
}

// TestExploreParetoResilienceAxes: StrategyPareto with faults explores
// the resilience axes and returns a front over them.
func TestExploreParetoResilienceAxes(t *testing.T) {
	mesh, cfg, g, fs := resilienceSetup(t)
	opts := Options{Seed: 3, TempSteps: 5, MovesPerTemp: 8, Restarts: 2, FrontSize: 6, Faults: fs}
	res, err := Explore(StrategyPareto, mesh, cfg, energy.Tech007, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Front == nil || len(res.Front.Points) == 0 {
		t.Fatal("empty resilience front")
	}
	if !reflect.DeepEqual(res.Front.Axes, []string{"total_j", "worst_fault_cy"}) {
		t.Fatalf("front axes %v", res.Front.Axes)
	}
	if res.Resilience == nil {
		t.Fatal("pareto resilience run without degradation report")
	}
}

// TestNewCDCMFaultsNilMatchesNewCDCM pins the evaluator-level nil-fault
// bit-identity.
func TestNewCDCMFaultsNilMatchesNewCDCM(t *testing.T) {
	mesh, cfg, g, _ := resilienceSetup(t)
	plain, err := NewCDCM(mesh, cfg, energy.Tech007, g)
	if err != nil {
		t.Fatal(err)
	}
	faultless, err := NewCDCMFaults(mesh, cfg, energy.Tech007, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 6; trial++ {
		mp, err := mapping.Random(rng, 6, 9)
		if err != nil {
			t.Fatal(err)
		}
		a, err := plain.Evaluate(mp)
		if err != nil {
			t.Fatal(err)
		}
		b, err := faultless.Evaluate(mp)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("nil-fault CDCM metrics diverged: %+v vs %+v", b, a)
		}
	}
}

// TestResilienceCostUnreachableIsNotAnError: the search objective must
// absorb partition scenarios as penalties (so SA can walk through them),
// while genuine errors still surface.
func TestResilienceCostUnreachableIsNotAnError(t *testing.T) {
	mesh, err := topology.NewMesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs := topology.NewFaultSet(mesh)
	if err := fs.FailRouter(3); err != nil {
		t.Fatal(err)
	}
	g := &model.CDCG{
		Cores:   model.MakeCores(2),
		Packets: []model.Packet{{ID: 0, Src: 0, Dst: 1, Compute: 2, Bits: 16}},
	}
	r, err := NewResilience(mesh, noc.Default(), energy.Tech007, g, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Cost(mapping.Mapping{0, 3}); err != nil {
		t.Fatalf("partition scenario must be a penalty, got error %v", err)
	}
	if _, err := r.Cost(mapping.Mapping{0}); err == nil {
		t.Fatal("short mapping accepted")
	} else if errors.Is(err, topology.ErrUnreachable) {
		t.Fatalf("validation error mislabelled unreachable: %v", err)
	}
}
