package wormhole

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
)

// TestBoundRejectsWhatRunScratchRejects feeds Bound and PortLoad the
// inputs RunScratch rejects — a mapping of the wrong length, a tile out
// of range, a duplicate tile, a pair a fault set partitions, a foreign
// or nil scratch — on a fresh scratch and on one holding port loads:
// each call returns RunScratch's error and nothing panics, and a
// rejected call leaves the kept loads as they were.
func TestBoundRejectsWhatRunScratchRejects(t *testing.T) {
	mesh, err := topology.NewMesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Isolate tile 0 (links 0-1 and 0-2 are its only attachments).
	fs := topology.NewFaultSet(mesh)
	if err := fs.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := fs.FailLink(0, 2); err != nil {
		t.Fatal(err)
	}
	g := &model.CDCG{
		Cores: model.MakeCores(3),
		Packets: []model.Packet{
			{ID: 0, Src: 0, Dst: 1, Compute: 1, Bits: 8},
			{ID: 1, Src: 1, Dst: 2, Compute: 2, Bits: 16},
		},
	}
	cfg := noc.Default()
	cfg.Routing = topology.RouteFA
	sim, err := NewSimulatorFaults(mesh, cfg, g, fs)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewSimulatorFaults(mesh, cfg, g, fs)
	if err != nil {
		t.Fatal(err)
	}
	valid, moved := mapping.Mapping{1, 2, 3}, mapping.Mapping{3, 1, 2}
	for _, tc := range []struct {
		name string
		mp   mapping.Mapping
		sc   func() *Scratch
	}{
		{"short", mapping.Mapping{1, 2}, nil},
		{"long", mapping.Mapping{1, 2, 3, 0}, nil},
		{"tile out of range", mapping.Mapping{1, 2, 4}, nil},
		{"negative tile", mapping.Mapping{1, -1, 2}, nil},
		{"duplicate tile", mapping.Mapping{1, 1, 2}, nil},
		{"unreachable pair", mapping.Mapping{0, 1, 2}, nil},
		{"foreign scratch", valid, other.NewScratch},
		{"nil scratch", valid, func() *Scratch { return nil }},
	} {
		for _, warm := range []bool{false, true} {
			sc := sim.NewScratch()
			if warm {
				if _, err := sim.PortLoad(valid, sc); err != nil {
					t.Fatal(err)
				}
			}
			kept := append([]int64(nil), sc.load...)
			target := sc
			if tc.sc != nil {
				target = tc.sc()
			}
			_, want := sim.RunScratch(tc.mp, target)
			if want == nil {
				t.Fatalf("%s: RunScratch accepted the input", tc.name)
			}
			if _, _, err := sim.Bound(tc.mp, target); err == nil || err.Error() != want.Error() {
				t.Fatalf("%s (warm %v): Bound error %v, RunScratch error %v", tc.name, warm, err, want)
			}
			if _, err := sim.PortLoad(tc.mp, target); err == nil || err.Error() != want.Error() {
				t.Fatalf("%s (warm %v): PortLoad error %v, RunScratch error %v", tc.name, warm, err, want)
			}
			if !reflect.DeepEqual(sc.load, kept) {
				t.Fatalf("%s (warm %v): a rejected PortLoad changed the kept loads", tc.name, warm)
			}
			got, err := sim.PortLoad(moved, sc)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := sim.PortLoad(moved, sim.NewScratch()); got != want {
				t.Fatalf("%s (warm %v): port load %d after a rejection, fresh %d", tc.name, warm, got, want)
			}
		}
	}
}

// TestBoundPortLoadSteadyStateZeroAllocs pins the pre-packet bounds to
// zero heap allocations: Bound, then PortLoad, then HeadTail, on a swap
// sequence through one scratch, on a planar and a stacked grid.
func TestBoundPortLoadSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mesh2, _ := topology.NewMesh(4, 4)
	mesh3, _ := topology.NewMesh3D(2, 2, 2)
	for _, mesh := range []*topology.Mesh{mesh2, mesh3} {
		cfg := noc.Default()
		if mesh.D() > 1 {
			cfg.Routing = topology.RouteXYZ
		}
		nc := mesh.NumTiles() - 2
		sim, err := NewSimulator(mesh, cfg, randomValidCDCG(rng, nc, 6*nc))
		if err != nil {
			t.Fatal(err)
		}
		sim.PortLoadBound = true // the grids are below its core count
		sc := sim.NewScratch()
		mp, err := mapping.Random(rng, nc, mesh.NumTiles())
		if err != nil {
			t.Fatal(err)
		}
		occ := mp.Occupants(mesh.NumTiles())
		swaps := make([][2]topology.TileID, 32)
		for i := range swaps {
			swaps[i] = [2]topology.TileID{mp[rng.Intn(nc)], topology.TileID(rng.Intn(mesh.NumTiles()))}
		}
		i := 0
		step := func() {
			sw := swaps[i%len(swaps)]
			i++
			mapping.SwapTiles(mp, occ, sw[0], sw[1])
			if _, _, err := sim.Bound(mp, sc); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.PortLoad(mp, sc); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.HeadTail(mp, sc); err != nil {
				t.Fatal(err)
			}
		}
		for range swaps {
			step()
		}
		if allocs := testing.AllocsPerRun(64, step); allocs != 0 {
			t.Fatalf("%dx%dx%d: Bound + PortLoad + HeadTail allocate %.1f objects/run, want 0",
				mesh.W(), mesh.H(), mesh.D(), allocs)
		}
	}
}

// TestRunConcurrentMatchesSequential: Run simulates on a scratch of its
// own, so goroutines sharing one simulator through Run get exactly the
// Results sequential runs give. Run with -race in CI.
func TestRunConcurrentMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	mesh, _ := topology.NewMesh(3, 3)
	g := randomValidCDCG(rng, 7, 50)
	sim, err := NewSimulator(mesh, noc.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	mps := make([]mapping.Mapping, 16)
	want := make([]*Result, len(mps))
	for i := range mps {
		if mps[i], err = mapping.Random(rng, 7, 9); err != nil {
			t.Fatal(err)
		}
		if want[i], err = sim.Run(mps[i]); err != nil {
			t.Fatal(err)
		}
	}
	var got [2][]*Result
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]*Result, len(mps))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, mp := range mps {
				res, err := sim.Run(mp)
				if err != nil {
					t.Error(err)
					return
				}
				got[w][i] = res
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i := range mps {
			if !reflect.DeepEqual(got[w][i], want[i]) {
				t.Fatalf("goroutine %d, mapping %d: concurrent Run diverged from a sequential one", w, i)
			}
		}
	}
}

// TestNewSimulatorRefusesUnkeyableHorizon pins the guard of the packed
// event key: model.Validate accepts any compute time, so a CDCG whose
// certified horizon does not fit the bits above the packet ID must be
// refused by NewSimulator with an error, not simulated out of order. At
// the largest horizon that fits, the run still orders its packets by
// start and keeps every start whole.
func TestNewSimulatorRefusesUnkeyableHorizon(t *testing.T) {
	mesh, err := topology.NewMesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	app := func(compute0, compute1 int64) *model.CDCG {
		return &model.CDCG{
			Cores: model.MakeCores(3),
			Packets: []model.Packet{
				{ID: 0, Src: 0, Dst: 1, Compute: compute0, Bits: 64},
				{ID: 1, Src: 1, Dst: 2, Compute: compute1, Bits: 64},
				{ID: 2, Src: 2, Dst: 0, Compute: 3, Bits: 64},
			},
			Deps: []model.Dep{{From: 1, To: 2}},
		}
	}
	base, err := NewSimulator(mesh, noc.Default(), app(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	h0, limit := base.horizon(), uint64(1)<<(63-base.idBits)

	// Packet 0's compute time adds to the horizon one for one.
	fits := int64(limit - 1 - h0)
	sim, err := NewSimulator(mesh, noc.Default(), app(fits, 0))
	if err != nil {
		t.Fatalf("horizon %d below the limit %d refused: %v", limit-1, limit, err)
	}
	mp := mapping.Mapping{0, 1, 3}
	res, err := sim.Run(mp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets[0].Start != fits || res.Packets[0].Delivered != res.ExecCycles ||
		res.Packets[2].Start != res.Packets[1].Delivered+3 || res.Packets[2].Delivered >= res.Packets[0].Start {
		t.Fatalf("schedule at the largest keyable horizon: %+v", res.Packets)
	}

	for _, tc := range []struct {
		name               string
		compute0, compute1 int64
	}{
		{"one cycle past the limit", fits + 1, 0},
		{"largest compute", math.MaxInt64, 0},
		{"sum past 2^64", math.MaxInt64, math.MaxInt64},
	} {
		if _, err := NewSimulator(mesh, noc.Default(), app(tc.compute0, tc.compute1)); err == nil ||
			!strings.Contains(err.Error(), "event horizon") {
			t.Fatalf("%s: NewSimulator error %v, want the event-horizon refusal", tc.name, err)
		}
	}
}
