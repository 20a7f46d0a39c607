package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/appgen"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/search"
	"repro/internal/topology"
)

// Both evaluators promise Cost == CollapseWeights·Components bit for bit
// (the vector seam's contract); these pins are the multi-objective
// analogue of the delta-equivalence tests.

func vectorSetup(t *testing.T) (*topology.Mesh, *model.CDCG) {
	t.Helper()
	mesh, err := topology.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := appgen.Generate(appgen.Params{
		Name: "vector-4x4", Cores: 8, Packets: 48, TotalBits: 30000, Seed: 9, Chains: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mesh, g
}

func randomMappings(t *testing.T, n, cores, tiles int) []mapping.Mapping {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	mps := make([]mapping.Mapping, n)
	for i := range mps {
		var err error
		if mps[i], err = mapping.Random(rng, cores, tiles); err != nil {
			t.Fatal(err)
		}
	}
	return mps
}

func TestCWMCollapseIdentity(t *testing.T) {
	mesh, g := vectorSetup(t)
	cwm, err := NewCWM(mesh, noc.Default(), energy.Tech007, g.ToCWG())
	if err != nil {
		t.Fatal(err)
	}
	var vobj search.VectorObjective = cwm // compile-time interface pin
	if got := vobj.Axes(); !reflect.DeepEqual(got, []string{"dynamic_j", "latency_cy"}) {
		t.Fatalf("CWM axes %v", got)
	}
	dst := make([]float64, 2)
	for _, mp := range randomMappings(t, 24, 8, 16) {
		cost, err := cwm.Cost(mp)
		if err != nil {
			t.Fatal(err)
		}
		if err := cwm.ComponentsInto(mp, dst); err != nil {
			t.Fatal(err)
		}
		// CWM collapses with weights {1, 0}: the scalar must equal the
		// dynamic axis exactly, and the collapse bit for bit.
		if got := search.Collapse(vobj.CollapseWeights(), dst); got != cost {
			t.Fatalf("collapse %g != Cost %g", got, cost)
		}
		if dst[0] != cost {
			t.Fatalf("dynamic axis %g != Cost %g", dst[0], cost)
		}
		if dst[1] <= 0 {
			t.Fatalf("latency aggregate %g not positive", dst[1])
		}
	}
	if err := cwm.ComponentsInto(mapping.Mapping{0, 1}, dst[:1]); err == nil {
		t.Fatal("short component buffer accepted")
	}
}

func TestCDCMCollapseIdentity(t *testing.T) {
	mesh, g := vectorSetup(t)
	cdcm, err := NewCDCM(mesh, noc.Default(), energy.Tech007, g)
	if err != nil {
		t.Fatal(err)
	}
	var vobj search.VectorObjective = cdcm
	if got := vobj.Axes(); !reflect.DeepEqual(got, []string{"dynamic_j", "static_j", "latency_cy"}) {
		t.Fatalf("CDCM axes %v", got)
	}
	dst := make([]float64, 3)
	for _, mp := range randomMappings(t, 16, 8, 16) {
		cost, err := cdcm.Cost(mp)
		if err != nil {
			t.Fatal(err)
		}
		if err := cdcm.ComponentsInto(mp, dst); err != nil {
			t.Fatal(err)
		}
		if got := search.Collapse(vobj.CollapseWeights(), dst); got != cost {
			t.Fatalf("collapse %g != Cost %g", got, cost)
		}
		met, err := cdcm.Evaluate(mp)
		if err != nil {
			t.Fatal(err)
		}
		want := met.Components()
		if !reflect.DeepEqual(want, append([]float64(nil), dst...)) {
			t.Fatalf("components %v != metrics view %v", dst, want)
		}
		if met.Total() != cost {
			t.Fatalf("Metrics.Total %g != Cost %g", met.Total(), cost)
		}
	}
}

// TestExploreParetoRejectsNonSAMethod: the front engine is an annealer,
// so Explore refuses every other Method before building anything rather
// than silently running SA.
func TestExploreParetoRejectsNonSAMethod(t *testing.T) {
	mesh, g := vectorSetup(t)
	for _, m := range []Method{MethodES, MethodRandom, MethodHill, MethodTabu} {
		var phases []string
		opts := paretoOptions(1)
		opts.Method = m
		opts.OnPhase = func(name string) { phases = append(phases, name) }
		if _, err := Explore(StrategyPareto, mesh, noc.Default(), energy.Tech007, g, opts); err == nil {
			t.Errorf("pareto with method %s accepted", m)
		}
		if len(phases) != 0 {
			t.Errorf("pareto with method %s started phases %v", m, phases)
		}
	}
}

func paretoOptions(workers int) Options {
	return Options{Seed: 7, TempSteps: 10, MovesPerTemp: 12, Restarts: 5, Workers: workers}
}

func TestExploreParetoDeterministicAcrossWorkers(t *testing.T) {
	mesh, g := vectorSetup(t)
	var ref *ExploreResult
	for _, workers := range []int{1, 2, 3} {
		res, err := Explore(StrategyPareto, mesh, noc.Default(), energy.Tech007, g, paretoOptions(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			if len(ref.Front.Points) == 0 {
				t.Fatal("empty front")
			}
			continue
		}
		if !reflect.DeepEqual(res.Front, ref.Front) {
			t.Fatalf("workers=%d changed the front", workers)
		}
		if !reflect.DeepEqual(res.Best, ref.Best) || res.Search.BestCost != ref.Search.BestCost {
			t.Fatalf("workers=%d changed the scalar summary", workers)
		}
	}
}

func TestExploreParetoFrontRepricesExactly(t *testing.T) {
	mesh, g := vectorSetup(t)
	cfg := noc.Default()
	res, err := Explore(StrategyPareto, mesh, cfg, energy.Tech007, g, paretoOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	front := res.Front
	if front == nil {
		t.Fatal("no front on a pareto exploration")
	}
	// Mutual non-domination.
	for i := range front.Points {
		for j := range front.Points {
			if i != j && search.Dominates(front.Points[i].Components, front.Points[j].Components) {
				t.Fatalf("front point %d dominates %d", i, j)
			}
		}
	}
	// Exact reprice on a fresh evaluator: the front must be reproducible
	// from the instance alone, with no accumulated search state.
	fresh, err := NewCDCM(mesh, cfg, energy.Tech007, g)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 3)
	for i, p := range front.Points {
		if err := fresh.ComponentsInto(p.Mapping, dst); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Components, append([]float64(nil), dst...)) {
			t.Fatalf("point %d does not reprice: stored %v, fresh %v", i, p.Components, dst)
		}
		if got := search.Collapse(front.Weights, p.Components); got != p.Cost {
			t.Fatalf("point %d: cost %g != collapse %g", i, p.Cost, got)
		}
	}
	// The scalar summary is the front's best point, priced like any
	// scalar exploration.
	best, _ := front.Best()
	if !reflect.DeepEqual(res.Best, best.Mapping) || res.Search.BestCost != best.Cost {
		t.Fatal("ExploreResult does not summarise the front's best point")
	}
	if res.Metrics.Energy.Dynamic != best.Components[0] ||
		res.Metrics.Energy.Static != best.Components[1] ||
		float64(res.Metrics.ExecCycles) != best.Components[2] {
		t.Fatal("Metrics disagree with the best point's components")
	}
}

// TestExploreSeedGreedyNeverWorse is the warm-start guarantee: every
// engine that accepts an initial mapping prices it as its starting point
// and can only improve from there, so a seeded exploration never
// finishes worse than the greedy seed itself.
func TestExploreSeedGreedyNeverWorse(t *testing.T) {
	mesh, g := vectorSetup(t)
	cfg := noc.Default()
	in, err := NewInstance(mesh, cfg, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := in.GreedyInitial()
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Validate(mesh.NumTiles()); err != nil {
		t.Fatal(err)
	}
	cdcm, err := NewCDCM(mesh, cfg, energy.Tech007, g)
	if err != nil {
		t.Fatal(err)
	}
	seedCost, err := cdcm.Cost(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"sa", Options{Method: MethodSA, Seed: 3, TempSteps: 8, MovesPerTemp: 10, SeedGreedy: true}},
		{"hill", Options{Method: MethodHill, Seed: 3, SeedGreedy: true}},
		{"pareto", func() Options { o := paretoOptions(2); o.SeedGreedy = true; return o }()},
	} {
		strategy := StrategyCDCM
		if tc.name == "pareto" {
			strategy = StrategyPareto
		}
		res, err := Explore(strategy, mesh, cfg, energy.Tech007, g, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Search.InitialCost != seedCost {
			t.Errorf("%s: InitialCost %g, want the greedy seed's %g", tc.name, res.Search.InitialCost, seedCost)
		}
		if res.Search.BestCost > seedCost {
			t.Errorf("%s: finished at %g, worse than the greedy seed %g", tc.name, res.Search.BestCost, seedCost)
		}
	}

	// An explicit Initial wins over SeedGreedy.
	explicit := seed.Clone()
	explicit[0], explicit[1] = explicit[1], explicit[0]
	explicitCost, err := cdcm.Cost(explicit)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(StrategyCDCM, mesh, cfg, energy.Tech007, g,
		Options{Method: MethodHill, Seed: 3, SeedGreedy: true, Initial: explicit})
	if err != nil {
		t.Fatal(err)
	}
	if res.Search.InitialCost != explicitCost {
		t.Fatalf("explicit Initial overridden: InitialCost %g, want %g", res.Search.InitialCost, explicitCost)
	}
}
