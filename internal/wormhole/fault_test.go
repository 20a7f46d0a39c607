package wormhole

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
)

// TestNewSimulatorFaultsNilBitIdentity pins the zero-cost contract of the
// fault-aware constructor: nil and empty fault sets build a simulator
// whose results are bit-identical to NewSimulator's on every mapping —
// the intact fast path is untouched by the fault machinery.
func TestNewSimulatorFaultsNilBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	mesh, err := topology.NewMesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := randomValidCDCG(rng, 7, 50)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	intact, err := NewSimulator(mesh, noc.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	for name, fs := range map[string]*topology.FaultSet{"nil": nil, "empty": topology.NewFaultSet(mesh)} {
		sim, err := NewSimulatorFaults(mesh, noc.Default(), g, fs)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			mp, err := mapping.Random(rng, 7, 9)
			if err != nil {
				t.Fatal(err)
			}
			want, err := intact.Run(mp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(mp)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s fault set: result diverges from intact simulator", name)
			}
		}
	}
}

// TestFaultSimulatorAvoidsFailedLink checks that a faulted simulator's
// traffic never crosses the failed link: a recording run books no
// occupancy on it in either direction, while the packets still deliver
// (the 3x3 remains connected) over links that do record theirs.
func TestFaultSimulatorAvoidsFailedLink(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mesh, err := topology.NewMesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := randomValidCDCG(rng, 9, 60)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	fs := topology.NewFaultSet(mesh)
	if err := fs.FailLink(4, 5); err != nil { // center -> east, heavily used by XY
		t.Fatal(err)
	}
	cfg := noc.Default()
	cfg.Routing = topology.RouteFA
	sim, err := NewSimulatorFaults(mesh, cfg, g, fs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunRecording(sim, mapping.Identity(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]topology.TileID{{4, 5}, {5, 4}} {
		li, ok := mesh.LinkIndex(pair[0], pair[1])
		if !ok {
			t.Fatal("link 4-5 missing")
		}
		if occ := res.Occupancies(KindLink, li); len(occ) != 0 {
			t.Errorf("failed link %d->%d carried %d packets", pair[0], pair[1], len(occ))
		}
	}
	var crossings int
	for li := 0; li < mesh.NumLinks(); li++ {
		crossings += len(res.Occupancies(KindLink, li))
	}
	if res.ExecCycles <= 0 || crossings == 0 {
		t.Fatalf("faulted run delivered by %d over %d link crossings", res.ExecCycles, crossings)
	}
}

// TestFaultSimulatorUnreachable pins the partition behaviour: the
// constructor still succeeds (the route table marks the dead pairs), and
// a run whose mapping routes across the partition fails fast with the
// static ErrUnreachable sentinel, matchable as both the wormhole and the
// topology error.
func TestFaultSimulatorUnreachable(t *testing.T) {
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
		Cores:   model.MakeCores(2),
		Packets: []model.Packet{{ID: 0, Src: 0, Dst: 1, Compute: 1, Bits: 8}},
	}
	cfg := noc.Default()
	cfg.Routing = topology.RouteFA
	sim, err := NewSimulatorFaults(mesh, cfg, g, fs)
	if err != nil {
		t.Fatalf("constructor must tolerate partitions: %v", err)
	}
	// Core 0 on the isolated tile, core 1 across the partition.
	_, err = sim.Run(mapping.Mapping{0, 3})
	if !errors.Is(err, ErrUnreachable) || !errors.Is(err, topology.ErrUnreachable) {
		t.Fatalf("partitioned run: err = %v, want the unreachable sentinel", err)
	}
	// Both cores inside the connected component: the run succeeds.
	if _, err := sim.Run(mapping.Mapping{1, 3}); err != nil {
		t.Fatalf("reachable mapping failed: %v", err)
	}
}

// TestFaultSimulatorScratchDeterministic: fault-aware runs are
// deterministic and Scratch lanes reproduce Run exactly, the property the
// parallel search workers rely on.
func TestFaultSimulatorScratchDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	mesh, err := topology.NewMesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := randomValidCDCG(rng, 6, 40)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	fs, err := topology.GenerateFaults(mesh, 0.15, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Empty() {
		t.Fatal("fault pin (0.15, seed 2) became empty; pick a different seed")
	}
	cfg := noc.Default()
	cfg.Routing = topology.RouteFA
	sim, err := NewSimulatorFaults(mesh, cfg, g, fs)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := mapping.Random(rng, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(mp)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScratch()
	for i := 0; i < 4; i++ {
		got, err := sim.RunScratch(mp, sc)
		if err != nil {
			t.Fatal(err)
		}
		if got.ExecCycles != want.ExecCycles || got.TotalContention != want.TotalContention {
			t.Fatalf("scratch run %d diverged: %d cycles vs %d", i, got.ExecCycles, want.ExecCycles)
		}
	}
}
