package wormhole

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
)

// cloneResult deep-copies a (possibly scratch-backed) Result so it can be
// compared after later runs reuse the backing arrays.
func cloneResult(r *Result) *Result {
	c := *r
	c.Packets = append([]PacketSchedule(nil), r.Packets...)
	c.RouterBits = append([]int64(nil), r.RouterBits...)
	c.LinkBits = append([]int64(nil), r.LinkBits...)
	c.occ = nil
	return &c
}

func resultsEqual(a, b *Result) bool {
	return a.ExecCycles == b.ExecCycles &&
		a.CoreBits == b.CoreBits &&
		a.TSVBits == b.TSVBits &&
		a.TotalContention == b.TotalContention &&
		reflect.DeepEqual(a.Packets, b.Packets) &&
		reflect.DeepEqual(a.RouterBits, b.RouterBits) &&
		reflect.DeepEqual(a.LinkBits, b.LinkBits)
}

// scratchMesh builds one of the grids the equivalence suite sweeps: a
// planar mesh, a stacked 3-D mesh and a torus, so the scratch path is
// pinned against Run on every topology family.
func scratchMeshes(t *testing.T) []*topology.Mesh {
	t.Helper()
	m2, err := topology.NewMesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := topology.NewMesh3D(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := topology.NewTorus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []*topology.Mesh{m2, m3, tor}
}

// TestRunScratchMatchesRun pins the scratch fast path against Run
// schedule-for-schedule: every field of every PacketSchedule and every
// traffic aggregate must be identical, across 2-D/3-D/torus grids.
func TestRunScratchMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, mesh := range scratchMeshes(t) {
		cfg := noc.Default()
		if mesh.D() > 1 {
			cfg.Routing = topology.RouteXYZ
			cfg.TSVLinkCycles = 3
		}
		nc := 2 + rng.Intn(mesh.NumTiles()-1)
		g := randomValidCDCG(rng, nc, 30)
		ref, err := NewSimulator(mesh, cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSimulator(mesh, cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		sc := sim.NewScratch()
		for trial := 0; trial < 20; trial++ {
			mp, err := mapping.Random(rng, nc, mesh.NumTiles())
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run(mp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.RunScratch(mp, sc)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(want, got) {
				t.Fatalf("mesh %dx%dx%d trial %d: scratch result diverged",
					mesh.W(), mesh.H(), mesh.D(), trial)
			}
		}
	}
}

// TestRunScratchResultReused pins the documented aliasing contract: the
// Result returned by RunScratch is backed by the scratch and overwritten
// by the next run with that scratch.
func TestRunScratchResultReused(t *testing.T) {
	mesh, _ := topology.NewMesh(2, 2)
	sim, err := NewSimulator(mesh, noc.Default(), model.PaperExampleCDCG())
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScratch()
	a, err := sim.RunScratch(paperMappingA, sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunScratch(paperMappingA, sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("RunScratch allocated a fresh Result instead of reusing the scratch's")
	}
	if &a.Packets[0] != &b.Packets[0] {
		t.Fatal("RunScratch reallocated the Packets backing array")
	}
}

// TestRunScratchSteadyStateZeroAllocs is the headline allocation test of
// the scratch subsystem: after warmup, a full CDCM wormhole simulation
// performs zero heap allocations.
func TestRunScratchSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mesh, _ := topology.NewMesh(4, 4)
	g := randomValidCDCG(rng, 9, 60)
	sim, err := NewSimulator(mesh, noc.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScratch()
	mps := make([]mapping.Mapping, 8)
	for i := range mps {
		if mps[i], err = mapping.Random(rng, 9, 16); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the scratch: grow every interval list, the heap and the hop
	// plan to their steady-state capacity.
	for range 4 {
		for _, mp := range mps {
			if _, err := sim.RunScratch(mp, sc); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(64, func() {
		mp := mps[i%len(mps)]
		i++
		if _, err := sim.RunScratch(mp, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RunScratch steady state allocates %.1f objects/run, want 0", allocs)
	}
}

// TestScratchConcurrentClonesMatchSequential races N scratches over a
// shared simulator (the parallel search engines' configuration) and
// requires every concurrent schedule to match the sequential Run result
// field for field. Run with -race in CI.
func TestScratchConcurrentClonesMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mesh, _ := topology.NewMesh3D(2, 2, 2)
	cfg := noc.Default()
	cfg.Routing = topology.RouteXYZ
	g := randomValidCDCG(rng, 6, 50)
	seq, err := NewSimulator(mesh, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewSimulator(mesh, cfg, g)
	if err != nil {
		t.Fatal(err)
	}

	const nMaps = 64
	mps := make([]mapping.Mapping, nMaps)
	want := make([]*Result, nMaps)
	for i := range mps {
		if mps[i], err = mapping.Random(rng, 6, 8); err != nil {
			t.Fatal(err)
		}
		res, err := seq.Run(mps[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	const workers = 8
	got := make([]*Result, nMaps)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := shared.NewScratch()
			for i := w; i < nMaps; i += workers {
				res, err := shared.RunScratch(mps[i], sc)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = cloneResult(res)
			}
		}(w)
	}
	wg.Wait()
	for i := range want {
		if got[i] == nil || !resultsEqual(want[i], got[i]) {
			t.Fatalf("mapping %d: concurrent scratch schedule diverged from sequential Run", i)
		}
	}
}

// TestRunIndependentResult pins Run's contract: same schedule as
// RunScratch, but the Result survives later runs, Run's and a scratch's.
func TestRunIndependentResult(t *testing.T) {
	mesh, _ := topology.NewMesh(2, 2)
	sim, err := NewSimulator(mesh, noc.Default(), model.PaperExampleCDCG())
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScratch()
	fresh, err := sim.Run(paperMappingA)
	if err != nil {
		t.Fatal(err)
	}
	keep := cloneResult(fresh)
	other := mapping.Mapping{0, 1, 2, 3}
	if _, err := sim.RunScratch(other, sc); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(other); err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(keep, fresh) {
		t.Fatal("Run result mutated by a later run")
	}
	via, err := sim.RunScratch(paperMappingA, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(via, fresh) {
		t.Fatal("Run schedule diverged from RunScratch")
	}
}

func TestRunScratchRejectsForeignScratch(t *testing.T) {
	mesh, _ := topology.NewMesh(2, 2)
	g := model.PaperExampleCDCG()
	a, err := NewSimulator(mesh, noc.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSimulator(mesh, noc.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunScratch(paperMappingA, b.NewScratch()); err == nil {
		t.Fatal("scratch from another simulator accepted")
	}
	if _, err := a.RunScratch(paperMappingA, nil); err == nil {
		t.Fatal("nil scratch accepted")
	}
	var zero Simulator
	if _, err := zero.RunScratch(paperMappingA, nil); err == nil {
		t.Fatal("zero-value simulator accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewScratch on zero-value simulator did not panic")
		}
	}()
	zero.NewScratch()
}

// TestScratchRecordOccupancy checks the per-scratch recording flag: off
// by default (search lanes), and once set on a scratch that already ran
// unrecorded it produces the same occupancies as a fresh recording
// scratch on another simulator.
func TestScratchRecordOccupancy(t *testing.T) {
	mesh, _ := topology.NewMesh(2, 2)
	g := model.PaperExampleCDCG()
	want, err := RunRecording(newPaperSim(t), paperMappingA)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(mesh, noc.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScratch()
	res, err := sim.RunScratch(paperMappingA, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Occupancies(KindRouter, 0) != nil {
		t.Fatal("scratch run recorded occupancies without the flag")
	}
	sc.RecordOccupancy = true
	res, err = sim.RunScratch(paperMappingA, sc)
	if err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < 4; tile++ {
		for _, kind := range []ResourceKind{KindRouter, KindCoreOut, KindCoreIn} {
			if !reflect.DeepEqual(res.Occupancies(kind, tile), want.Occupancies(kind, tile)) {
				t.Fatalf("%s occupancies of tile %d diverged from the fresh recording scratch", kind, tile)
			}
		}
	}
}
