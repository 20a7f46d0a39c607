package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/appgen"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/search"
	"repro/internal/topology"
)

// deltaInstance builds a seeded mesh + CWG pair sized for delta testing.
func deltaInstance(t testing.TB, w, h, cores int) (*topology.Mesh, *model.CDCG) {
	return deltaInstance3D(t, w, h, 1, cores)
}

// deltaInstance3D is deltaInstance over a stacked W×H×D mesh.
func deltaInstance3D(t testing.TB, w, h, d, cores int) (*topology.Mesh, *model.CDCG) {
	t.Helper()
	mesh, err := topology.NewMesh3D(w, h, d)
	if err != nil {
		t.Fatal(err)
	}
	g, err := appgen.Generate(appgen.Params{
		Name:      "delta-test",
		Cores:     cores,
		Packets:   8 * cores,
		TotalBits: int64(5000 * cores),
		Seed:      99,
		Chains:    cores / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mesh, g
}

func newTestCWM(t testing.TB, mesh *topology.Mesh, g *model.CDCG) *CWM {
	t.Helper()
	cwm, err := NewCWM(mesh, noc.Default(), energy.Tech007, g.ToCWG())
	if err != nil {
		t.Fatal(err)
	}
	return cwm
}

func TestCWMResetMatchesCost(t *testing.T) {
	mesh, g := deltaInstance(t, 4, 4, 8)
	cwm := newTestCWM(t, mesh, g)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		mp, err := mapping.Random(rng, g.NumCores(), mesh.NumTiles())
		if err != nil {
			t.Fatal(err)
		}
		want, err := cwm.Cost(mp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cwm.Reset(mp)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Reset = %g, Cost = %g (must be bit-identical)", got, want)
		}
	}
}

func TestCWMResetValidatesInjectivity(t *testing.T) {
	mesh, g := deltaInstance(t, 4, 4, 8)
	cwm := newTestCWM(t, mesh, g)
	dup := mapping.Identity(g.NumCores())
	dup[1] = dup[0] // two cores on one tile
	if _, err := cwm.Reset(dup); err == nil {
		t.Fatal("Reset accepted a non-injective mapping")
	}
	short := mapping.Identity(g.NumCores() - 1)
	if _, err := cwm.Reset(short); err == nil {
		t.Fatal("Reset accepted a short mapping")
	}
	out := mapping.Identity(g.NumCores())
	out[0] = topology.TileID(mesh.NumTiles())
	if _, err := cwm.Reset(out); err == nil {
		t.Fatal("Reset accepted an out-of-range tile")
	}
}

func TestCWMSwapDeltaBeforeResetErrors(t *testing.T) {
	mesh, g := deltaInstance(t, 4, 4, 8)
	cwm := newTestCWM(t, mesh, g)
	occ := mapping.Identity(g.NumCores()).Occupants(mesh.NumTiles())
	if _, err := cwm.SwapDelta(occ, 0, 1); err == nil {
		t.Fatal("SwapDelta before Reset must error")
	}
}

// TestCWMSwapDeltaMatchesFullRecompute proposes random swaps (occupied and
// empty tiles alike) and checks the O(deg) delta against the difference of
// two full evaluations, committing roughly half the moves so the bound
// baseline keeps moving.
func TestCWMSwapDeltaMatchesFullRecompute(t *testing.T) {
	// Planar and stacked instances alike: the 3-D rows exercise the
	// vertical (TSV) traffic aggregate of the delta path.
	for _, dims := range [][4]int{{4, 4, 1, 8}, {8, 8, 1, 16}, {2, 2, 2, 6}, {4, 4, 2, 20}} {
		mesh, g := deltaInstance3D(t, dims[0], dims[1], dims[2], dims[3])
		cwm := newTestCWM(t, mesh, g)
		rng := rand.New(rand.NewSource(7))
		mp, err := mapping.Random(rng, g.NumCores(), mesh.NumTiles())
		if err != nil {
			t.Fatal(err)
		}
		occ := mp.Occupants(mesh.NumTiles())
		cost, err := cwm.Reset(mp)
		if err != nil {
			t.Fatal(err)
		}
		tracked := cost
		for i := 0; i < 400; i++ {
			ta := topology.TileID(rng.Intn(mesh.NumTiles()))
			tb := topology.TileID(rng.Intn(mesh.NumTiles()))
			if ta == tb {
				continue
			}
			d, err := cwm.SwapDelta(occ, ta, tb)
			if err != nil {
				t.Fatal(err)
			}
			before, err := cwm.Cost(mp)
			if err != nil {
				t.Fatal(err)
			}
			swapped := mp.Clone()
			mapping.SwapTiles(swapped, swapped.Occupants(mesh.NumTiles()), ta, tb)
			after, err := cwm.Cost(swapped)
			if err != nil {
				t.Fatal(err)
			}
			want := after - before
			if diff := math.Abs(d - want); diff > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("swap (%d,%d): delta %g, full recompute difference %g", ta, tb, d, want)
			}
			if rng.Intn(2) == 0 {
				mapping.SwapTiles(mp, occ, ta, tb)
				cwm.Commit(ta, tb)
				tracked += d
			}
		}
		// Accumulated deltas must stay within floating-point noise of a
		// full recompute — the drift the engines' final re-price guards.
		full, err := cwm.Cost(mp)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(tracked - full); diff > 1e-9*(1+math.Abs(full)) {
			t.Fatalf("delta-tracked cost %g drifted from full recompute %g by %g", tracked, full, diff)
		}
	}
}

// TestEnginesDeltaVsFullEquivalence is the seeded equivalence matrix of
// the issue: for SA, hill climbing and tabu search on planar (4x4, 8x8)
// and stacked (2x2x2, 4x4x2) meshes, the CWM delta path must return the
// same Best mapping, the same BestCost and the same Evaluations count as
// the full-recompute path (obtained by hiding the DeltaObjective
// interface behind an ObjectiveFunc).
func TestEnginesDeltaVsFullEquivalence(t *testing.T) {
	for _, dims := range [][4]int{{4, 4, 1, 8}, {8, 8, 1, 16}, {2, 2, 2, 6}, {4, 4, 2, 16}} {
		mesh, g := deltaInstance3D(t, dims[0], dims[1], dims[2], dims[3])
		for _, seed := range []int64{1, 2, 3} {
			for _, tc := range []struct {
				name string
				run  func(p search.Problem) (*search.Result, error)
			}{
				{"sa", func(p search.Problem) (*search.Result, error) {
					return (&search.Annealer{Problem: p, Seed: seed, TempSteps: 15, Reheats: 1}).Run()
				}},
				{"hill", func(p search.Problem) (*search.Result, error) {
					return (&search.HillClimber{Problem: p, Seed: seed, Restarts: 1}).Run()
				}},
				{"tabu", func(p search.Problem) (*search.Result, error) {
					return (&search.Tabu{Problem: p, Seed: seed, Iterations: 10}).Run()
				}},
			} {
				name, run := tc.name, tc.run
				cwm := newTestCWM(t, mesh, g)
				full, err := run(search.Problem{Mesh: mesh, NumCores: g.NumCores(),
					Obj: search.ObjectiveFunc(cwm.Cost)})
				if err != nil {
					t.Fatalf("%s full: %v", name, err)
				}
				delta, err := run(search.Problem{Mesh: mesh, NumCores: g.NumCores(), Obj: cwm})
				if err != nil {
					t.Fatalf("%s delta: %v", name, err)
				}
				if !mapping.Equal(full.Best, delta.Best) {
					t.Fatalf("%s %dx%d seed %d: delta best %v != full best %v",
						name, dims[0], dims[1], seed, delta.Best, full.Best)
				}
				if full.BestCost != delta.BestCost {
					t.Fatalf("%s %dx%d seed %d: delta cost %g != full cost %g",
						name, dims[0], dims[1], seed, delta.BestCost, full.BestCost)
				}
				if full.Evaluations != delta.Evaluations {
					t.Fatalf("%s %dx%d seed %d: delta evaluations %d != full %d",
						name, dims[0], dims[1], seed, delta.Evaluations, full.Evaluations)
				}
			}
		}
	}
}

// TestMultiAnnealerDeltaDeterministicAcrossWorkers checks the delta fast
// path composes with the parallel runner: restarts bind per-worker CWM
// instances, and the merged result is bit-identical for every worker
// count (this runs under -race in CI).
func TestMultiAnnealerDeltaDeterministicAcrossWorkers(t *testing.T) {
	mesh, g := deltaInstance(t, 4, 4, 8)
	cwg := g.ToCWG()
	run := func(workers int) *search.Result {
		t.Helper()
		res, err := (&search.MultiAnnealer{
			Base: search.Annealer{
				Problem:   search.Problem{Mesh: mesh, NumCores: g.NumCores()},
				Seed:      11,
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
			t.Fatalf("workers=%d diverged from workers=1: %+v vs %+v", workers, res, ref)
		}
	}
}

// TestDeltaRunDeterministicUnderSeed re-runs the delta path on one CWM
// instance: the second run must rebind cleanly and reproduce the first.
func TestDeltaRunDeterministicUnderSeed(t *testing.T) {
	mesh, g := deltaInstance(t, 4, 4, 8)
	cwm := newTestCWM(t, mesh, g)
	p := search.Problem{Mesh: mesh, NumCores: g.NumCores(), Obj: cwm}
	a := &search.Annealer{Problem: p, Seed: 21, TempSteps: 12}
	r1, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !mapping.Equal(r1.Best, r2.Best) || r1.BestCost != r2.BestCost || r1.Evaluations != r2.Evaluations {
		t.Fatalf("same seed diverged on the delta path: %+v vs %+v", r1, r2)
	}
}

// TestCWMHopTablesMatchRoutes pins NewCWM's closed-form route tables
// against the routes themselves: for every tile pair, K must equal the
// router count of the route Mesh.AppendRoute walks and V the number of
// its steps that change layer. It covers every routing algorithm on
// meshes and tori in 2-D and 3-D, with even torus dimensions (where the
// two wrap directions tie) and odd ones.
func TestCWMHopTablesMatchRoutes(t *testing.T) {
	type grid struct {
		name    string
		w, h, d int
		torus   bool
	}
	grids := []grid{
		{"mesh5x3", 5, 3, 1, false},
		{"mesh1x4", 1, 4, 1, false},
		{"mesh3x2x3", 3, 2, 3, false},
		{"torus4x4", 4, 4, 1, true},
		{"torus2x3", 2, 3, 1, true},
		{"torus5x3", 5, 3, 1, true},
		{"torus4x2x2", 4, 2, 2, true},
		{"torus3x3x4", 3, 3, 4, true},
		{"torus2x2x3", 2, 2, 3, true},
	}
	algos := []topology.RoutingAlgo{topology.RouteXY, topology.RouteYX, topology.RouteXYZ, topology.RouteZYX, topology.RouteFA}
	g := &model.CWG{Cores: model.MakeCores(2), Edges: []model.CWGEdge{{Src: 0, Dst: 1, Bits: 1}}}
	for _, gr := range grids {
		var mesh *topology.Mesh
		var err error
		if gr.torus {
			mesh, err = topology.NewTorus3D(gr.w, gr.h, gr.d)
		} else {
			mesh, err = topology.NewMesh3D(gr.w, gr.h, gr.d)
		}
		if err != nil {
			t.Fatal(err)
		}
		n := mesh.NumTiles()
		for _, algo := range algos {
			cfg := noc.Default()
			cfg.Routing = algo
			cwm, err := NewCWM(mesh, cfg, energy.Tech007, g)
			if err != nil {
				t.Fatal(err)
			}
			var route []topology.TileID
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					route, err = mesh.AppendRoute(route[:0], algo, topology.TileID(a), topology.TileID(b))
					if err != nil {
						t.Fatal(err)
					}
					vert := 0
					for i := 1; i < len(route); i++ {
						if mesh.Coord(route[i]).Z != mesh.Coord(route[i-1]).Z {
							vert++
						}
					}
					if got := cwm.hops[a*n+b]; int(got.k) != len(route) || int(got.v) != vert {
						t.Fatalf("%s %v t%d->t%d: table K=%d V=%d, route %v has K=%d V=%d",
							gr.name, algo, a, b, got.k, got.v, route, len(route), vert)
					}
				}
			}
		}
	}
}
