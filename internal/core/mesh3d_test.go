package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/noc"
	"repro/internal/search"
	"repro/internal/topology"
)

// TestMesh3DDepth1BitIdenticalThroughSA is the regression pin of the 3-D
// extension's central promise: NewMesh3D(w, h, 1) is not merely similar
// to NewMesh(w, h) — an end-to-end SA exploration (route tables, delta
// evaluation, wormhole pricing) retraces the 2-D run move for move, for
// both strategies.
func TestMesh3DDepth1BitIdenticalThroughSA(t *testing.T) {
	_, g := deltaInstance(t, 4, 3, 9)
	m2, err := topology.NewMesh(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := topology.NewMesh3D(4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{StrategyCWM, StrategyCDCM} {
		opts := Options{Method: MethodSA, Seed: 17, TempSteps: 12, MovesPerTemp: 25}
		r2, err := Explore(strat, m2, noc.Default(), energy.Tech007, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		r3, err := Explore(strat, m3, noc.Default(), energy.Tech007, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !mapping.Equal(r2.Best, r3.Best) {
			t.Fatalf("%s: depth-1 best %v != 2D best %v", strat, r3.Best, r2.Best)
		}
		if r2.Search.BestCost != r3.Search.BestCost || r2.Search.Evaluations != r3.Search.Evaluations {
			t.Fatalf("%s: depth-1 run (cost %g, evals %d) != 2D run (cost %g, evals %d)",
				strat, r3.Search.BestCost, r3.Search.Evaluations, r2.Search.BestCost, r2.Search.Evaluations)
		}
		if r2.Metrics != r3.Metrics {
			t.Fatalf("%s: depth-1 metrics %+v != 2D metrics %+v", strat, r3.Metrics, r2.Metrics)
		}
	}
}

// TestCWM3DDynamicAgreesWithSimulator pins equation consistency on 3-D
// grids: for a fixed mapping, the CWM fold of the traffic aggregates
// (router/link/TSV) must price dynamic energy bit-identically to the
// wormhole simulator's measured traffic — the same agreement the 2-D
// models have by construction.
func TestCWM3DDynamicAgreesWithSimulator(t *testing.T) {
	for _, torus := range []bool{false, true} {
		var mesh *topology.Mesh
		var err error
		if torus {
			mesh, err = topology.NewTorus3D(2, 2, 3)
		} else {
			mesh, err = topology.NewMesh3D(2, 2, 3)
		}
		if err != nil {
			t.Fatal(err)
		}
		_, g := deltaInstance(t, 3, 3, 9) // 9 cores fit the 12 tiles
		cwm, err := NewCWM(mesh, noc.Default(), energy.Tech007, g.ToCWG())
		if err != nil {
			t.Fatal(err)
		}
		cdcm, err := NewCDCM(mesh, noc.Default(), energy.Tech007, g)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 10; i++ {
			mp, err := mapping.Random(rng, g.NumCores(), mesh.NumTiles())
			if err != nil {
				t.Fatal(err)
			}
			cwmCost, err := cwm.Cost(mp)
			if err != nil {
				t.Fatal(err)
			}
			met, err := cdcm.Evaluate(mp)
			if err != nil {
				t.Fatal(err)
			}
			if cwmCost != met.Energy.Dynamic {
				t.Fatalf("torus=%v: CWM %g != simulator dynamic %g", torus, cwmCost, met.Energy.Dynamic)
			}
			if met.TSVBits == 0 {
				// Statistically impossible on 10 random 3-layer mappings of
				// a connected application unless TSV accounting is broken.
				t.Fatalf("torus=%v: mapping %v reports no TSV traffic", torus, mp)
			}
		}
	}
}

// TestMultiAnnealerDelta3DDeterministicAcrossWorkers extends the
// workers-determinism matrix to stacked instances: 2x2x2 and 4x4x2,
// multi-restart SA on the delta path, bit-identical for workers 1..N
// (this runs under -race in CI).
func TestMultiAnnealerDelta3DDeterministicAcrossWorkers(t *testing.T) {
	for _, dims := range [][4]int{{2, 2, 2, 6}, {4, 4, 2, 16}} {
		mesh, g := deltaInstance3D(t, dims[0], dims[1], dims[2], dims[3])
		cwg := g.ToCWG()
		run := func(workers int) *search.Result {
			t.Helper()
			res, err := (&search.MultiAnnealer{
				Base: search.Annealer{
					Problem:   search.Problem{Mesh: mesh, NumCores: g.NumCores()},
					Seed:      13,
					TempSteps: 10,
				},
				Restarts: 4,
				Workers:  workers,
				NewObjective: func() (search.Objective, error) {
					return NewCWM(mesh, noc.Default(), energy.Tech007, cwg)
				},
			}).Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		ref := run(1)
		for _, workers := range []int{2, 4, runtime.NumCPU()} {
			res := run(workers)
			if !mapping.Equal(ref.Best, res.Best) || ref.BestCost != res.BestCost ||
				ref.Evaluations != res.Evaluations || ref.Improvements != res.Improvements {
				t.Fatalf("%dx%dx%d workers=%d diverged from workers=1: %+v vs %+v",
					dims[0], dims[1], dims[2], workers, res, ref)
			}
		}
	}
}
