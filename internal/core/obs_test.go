package core

import (
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/topology"
)

// TestInstrumentedCWMZeroAlloc pins that attaching the telemetry counter
// keeps the CWM hot path allocation-free from the first call: the
// instrumented SwapDelta/Commit sweep must match the bare sweep's zero.
func TestInstrumentedCWMZeroAlloc(t *testing.T) {
	cwm, occ := coldSweepCWM(t)
	var evals obs.Counter
	cwm.Evals = &evals
	if allocs := swapSweepMallocs(t, cwm, occ); allocs != 0 {
		t.Fatalf("instrumented SwapDelta+Commit allocates %d objects over a cold sweep, want 0", allocs)
	}
	if evals.Value() == 0 {
		t.Fatal("instrumented run recorded no evaluations")
	}
}

// TestInstrumentedCDCMZeroAllocSteadyState pins the CDCM analogue: the
// counted simulation path stays allocation-free once the scratch is
// warm.
func TestInstrumentedCDCMZeroAllocSteadyState(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 6)
	cdcm, err := NewCDCM(mesh, noc.Default(), energy.Tech007, g)
	if err != nil {
		t.Fatal(err)
	}
	var evals obs.Counter
	cdcm.Evals = &evals
	mp := mapping.Identity(g.NumCores())
	if _, err := cdcm.Evaluate(mp); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(32, func() {
		if _, err := cdcm.Evaluate(mp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("instrumented CDCM.Evaluate allocates %.1f objects/run, want 0", allocs)
	}
	if evals.Value() < 33 {
		t.Fatalf("eval counter = %d, want at least 33", evals.Value())
	}
}

// TestCDCMEvalsCountCompletedRunsOnly pins Evals' contract: a mapping
// the simulator rejects — one crossing a faulted partition, one placing
// two cores on a tile — leaves the counter unchanged through Evaluate,
// Cost and PriceBelow, while a mapping that runs counts once per
// simulation.
func TestCDCMEvalsCountCompletedRunsOnly(t *testing.T) {
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
	cdcm, err := NewCDCMFaults(mesh, noc.Default(), energy.Tech007, g, fs)
	if err != nil {
		t.Fatal(err)
	}
	var evals obs.Counter
	cdcm.Evals = &evals
	for _, mp := range []mapping.Mapping{{0, 3}, {1, 1}} {
		if _, err := cdcm.Evaluate(mp); err == nil {
			t.Fatalf("mapping %v: Evaluate accepted it", mp)
		}
		if _, err := cdcm.Cost(mp); err == nil {
			t.Fatalf("mapping %v: Cost accepted it", mp)
		}
		if _, _, err := cdcm.PriceBelow(mp, func(float64) bool { return false }); err == nil {
			t.Fatalf("mapping %v: PriceBelow accepted it", mp)
		}
		if n := evals.Value(); n != 0 {
			t.Fatalf("mapping %v: rejected runs counted %d evaluations", mp, n)
		}
	}
	mp := mapping.Mapping{0, 1}
	if _, err := cdcm.Evaluate(mp); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cdcm.PriceBelow(mp, func(float64) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if n := evals.Value(); n != 2 {
		t.Fatalf("two completed runs counted %d evaluations", n)
	}
}

// TestExploreOnPhaseOrderAndEvalCounter pins the phase seam — every
// strategy announces build, search, price in that order from Explore's
// goroutine — and that the evaluation counter matches the engine's own
// count for the single-lane engines.
func TestExploreOnPhaseOrderAndEvalCounter(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 6)
	for _, strategy := range []Strategy{StrategyCWM, StrategyCDCM, StrategyPareto} {
		var phases []string
		var evals obs.Counter
		opts := Options{
			Method:       MethodSA,
			Seed:         7,
			TempSteps:    6,
			MovesPerTemp: 4,
			OnPhase:      func(name string) { phases = append(phases, name) },
			EvalCounter:  &evals,
		}
		if strategy == StrategyPareto {
			opts.TempSteps, opts.MovesPerTemp, opts.Restarts = 5, 4, 2
		}
		res, err := Explore(strategy, mesh, noc.Default(), energy.Tech007, g, opts)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if want := []string{"build", "search", "price"}; !reflect.DeepEqual(phases, want) {
			t.Errorf("%s: phases = %v, want %v", strategy, phases, want)
		}
		if evals.Value() == 0 {
			t.Errorf("%s: eval counter stayed 0", strategy)
		}
		// CDCM counts one increment per simulation: every engine
		// evaluation plus the final winner pricing.
		if strategy == StrategyCDCM {
			if got, want := evals.Value(), res.Search.Evaluations+1; got != want {
				t.Errorf("CDCM eval counter = %d, want %d", got, want)
			}
		}
	}
}

// TestExploreInstrumentationIsObservational pins that attaching
// OnPhase and EvalCounter changes nothing about the result.
func TestExploreInstrumentationIsObservational(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 6)
	opts := Options{Method: MethodSA, Seed: 3, TempSteps: 8, MovesPerTemp: 4}
	bare, err := Explore(StrategyCWM, mesh, noc.Default(), energy.Tech007, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var evals obs.Counter
	opts.OnPhase = func(string) {}
	opts.EvalCounter = &evals
	instrumented, err := Explore(StrategyCWM, mesh, noc.Default(), energy.Tech007, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Search.BestCost != instrumented.Search.BestCost ||
		bare.Search.Evaluations != instrumented.Search.Evaluations ||
		!mapping.Equal(bare.Best, instrumented.Best) {
		t.Fatalf("instrumentation changed the exploration:\nbare %+v\ninst %+v",
			bare.Search, instrumented.Search)
	}
}
