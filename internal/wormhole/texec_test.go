package wormhole_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mapping"
	"repro/internal/wormhole"
)

// TestTexecMatchesRunScratch is the oracle of the texec-only run: on the
// reference sweep and on every configuration of the simulator digest
// (each Table-1 row by default and with arbitrated core links, a stacked
// 3-D mesh, a torus and a faulted mesh), Texec returns the ExecCycles of
// a full run and rejects what RunScratch rejects. Each mapping is priced
// by Texec and then run in full on the same scratch, whose last full run
// was of another mapping, and that Result must equal one from a fresh
// scratch field for field: the texec-only run leaves no stale schedule
// or bit tally behind. Every delivery also stays within the certified
// horizon the packed event keys are sized for.
func TestTexecMatchesRunScratch(t *testing.T) {
	var compared, unreachable int
	check := func(what string, sim *wormhole.Simulator, sc *wormhole.Scratch, mp mapping.Mapping) {
		t.Helper()
		texec, err := sim.Texec(mp, sc)
		got, gotErr := sim.RunScratch(mp, sc)
		want, wantErr := sim.RunScratch(mp, sim.NewScratch())
		if wantErr != nil {
			if !errors.Is(wantErr, wormhole.ErrUnreachable) || !errors.Is(err, wormhole.ErrUnreachable) ||
				!errors.Is(gotErr, wormhole.ErrUnreachable) {
				t.Fatalf("%s: Texec error %v, RunScratch errors %v and %v", what, err, gotErr, wantErr)
			}
			unreachable++
			return
		}
		if err != nil || gotErr != nil {
			t.Fatalf("%s: Texec error %v, RunScratch error %v on a mapping a fresh scratch runs", what, err, gotErr)
		}
		if texec != want.ExecCycles {
			t.Fatalf("%s: Texec %d, RunScratch ExecCycles %d", what, texec, want.ExecCycles)
		}
		if !reflect.DeepEqual(*got, *want) {
			t.Fatalf("%s: a full run after Texec on one scratch differs from a fresh scratch's:\n%+v\n%+v", what, got, want)
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
