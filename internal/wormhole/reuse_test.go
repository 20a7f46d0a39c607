package wormhole_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mapping"
	"repro/internal/wormhole"
)

// TestRunScratchReuseMatchesFresh is the oracle of scratch reuse: on the
// reference sweep and on every configuration of the simulator digest
// (each Table-1 row by default and with arbitrated core links, a stacked
// 3-D mesh, a torus and a faulted mesh), each mapping runs on one
// scratch whose last run was of another mapping, or was rejected, and
// that Result must equal one from a fresh scratch field for field: a run
// leaves no stale schedule, traffic or contention behind. A mapping a
// fresh scratch rejects as unreachable is rejected on the reused one
// too. Every delivery also stays within the certified horizon the
// packed event keys are sized for.
func TestRunScratchReuseMatchesFresh(t *testing.T) {
	var compared, unreachable int
	check := func(what string, sim *wormhole.Simulator, sc *wormhole.Scratch, mp mapping.Mapping) {
		t.Helper()
		got, gotErr := sim.RunScratch(mp, sc)
		want, wantErr := sim.RunScratch(mp, sim.NewScratch())
		if wantErr != nil {
			if !errors.Is(wantErr, wormhole.ErrUnreachable) || !errors.Is(gotErr, wormhole.ErrUnreachable) {
				t.Fatalf("%s: RunScratch errors %v on the reused scratch and %v on a fresh one", what, gotErr, wantErr)
			}
			unreachable++
			return
		}
		if gotErr != nil {
			t.Fatalf("%s: RunScratch error %v on the reused scratch, on a mapping a fresh scratch runs", what, gotErr)
		}
		if !reflect.DeepEqual(*got, *want) {
			t.Fatalf("%s: a run on a reused scratch differs from a fresh scratch's:\n%+v\n%+v", what, got, want)
		}
		h := wormhole.Horizon(sim)
		for _, p := range want.Packets {
			if uint64(p.Delivered) > h {
				t.Fatalf("%s: packet %d delivered at %d, past the certified horizon %d", what, p.ID, p.Delivered, h)
			}
		}
		compared++
	}
	refSweep(t, func(i, run int, fx refFixture, sim *wormhole.Simulator, sc *wormhole.Scratch, mp mapping.Mapping) {
		check("reference instance", sim, sc, mp)
	})
	for i, in := range digestInputs(t) {
		sim, err := wormhole.NewSimulatorFaults(in.mesh, in.cfg, in.g, in.fs)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		sc := sim.NewScratch()
		rng := rand.New(rand.NewSource(int64(3000 + i)))
		for run := 0; run < 20; run++ {
			mp, err := mapping.Random(rng, in.g.NumCores(), in.mesh.NumTiles())
			if err != nil {
				t.Fatal(err)
			}
			check(in.name, sim, sc, mp)
		}
	}
	t.Logf("%d mappings compared, %d unreachable", compared, unreachable)
	if unreachable == 0 {
		t.Fatal("no unreachable mapping: the rejection path is untested")
	}
}
