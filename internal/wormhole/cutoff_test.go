package wormhole_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mapping"
	"repro/internal/noc"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// boundLog is a wormhole.Cutoff that records every bound it is offered
// and stops at the stopAt-th offer (never when stopAt is 0).
type boundLog struct {
	bounds  []int64
	traffic []wormhole.Traffic
	stopAt  int
}

func (b *boundLog) Stop(t wormhole.Traffic, texecBound int64) bool {
	b.bounds = append(b.bounds, texecBound)
	b.traffic = append(b.traffic, t)
	return len(b.bounds) == b.stopAt
}

// refCriticalPath is the uncontended critical path of g under mp,
// computed from Mesh.RouteFault routes: the longest dependence chain of
// compute times plus contention-free packet durations
// K·(tr+tl) + V·(tTSV−tl) + n·tl.
func refCriticalPath(t *testing.T, fx refFixture, mp mapping.Mapping) int64 {
	t.Helper()
	cfg := fx.cfg
	finish := make([]int64, len(fx.g.Packets))
	preds := make([][]int, len(fx.g.Packets))
	for _, d := range fx.g.Deps {
		preds[d.To] = append(preds[d.To], int(d.From))
	}
	var best int64
	// Dependences point from lower to higher packet IDs in the fixtures,
	// so ID order is a topological order.
	for p, pk := range fx.g.Packets {
		r, err := fx.mesh.RouteFault(cfg.Routing, fx.fs, mp[pk.Src], mp[pk.Dst])
		if err != nil {
			t.Fatal(err)
		}
		var v int64
		for i := 1; i < len(r.Tiles); i++ {
			if fx.mesh.Coord(r.Tiles[i]).Z != fx.mesh.Coord(r.Tiles[i-1]).Z {
				v++
			}
		}
		var ready int64
		for _, q := range preds[p] {
			ready = max(ready, finish[q])
		}
		k := int64(r.K())
		finish[p] = ready + pk.Compute + k*(cfg.RoutingCycles+cfg.LinkCycles) +
			v*(cfg.TSVCycles()-cfg.LinkCycles) + cfg.Flits(pk.Bits)*cfg.LinkCycles
		best = max(best, finish[p])
	}
	return best
}

// TestRunBelowBoundSound is the cut-off soundness property, on the
// reference sweep's fixtures: the bound RunBelow offers before the
// first packet is the uncontended critical path, every later bound is
// larger than the one before and never exceeds the final texec, the
// traffic totals are the full run's aggregates, and a run that is never
// stopped returns exactly RunScratch's Result. Stopping at the j-th
// offer returns no Result, having booked no packet for j = 1.
func TestRunBelowBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(1404))
	var grew int
	for i := 0; i < refInstances/2; i++ {
		fx := randomRefFixture(t, rng)
		sim, err := wormhole.NewSimulatorFaults(fx.mesh, fx.cfg, fx.g, fx.fs)
		if err != nil {
			t.Fatal(err)
		}
		sc, below := sim.NewScratch(), sim.NewScratch()
		mp, err := mapping.Random(rng, fx.g.NumCores(), fx.mesh.NumTiles())
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := sim.RunScratch(mp, sc)
		log := &boundLog{}
		got, booked, err := sim.RunBelow(mp, below, log)
		if wantErr != nil || err != nil {
			if !errors.Is(wantErr, wormhole.ErrUnreachable) || !errors.Is(err, wormhole.ErrUnreachable) {
				t.Fatalf("instance %d: RunScratch error %v, RunBelow error %v", i, wantErr, err)
			}
			continue
		}
		if got == nil || booked != len(fx.g.Packets) || !reflect.DeepEqual(got, want) {
			t.Fatalf("instance %d: uncut RunBelow (booked %d) diverges from RunScratch", i, booked)
		}
		if cp := refCriticalPath(t, fx, mp); log.bounds[0] != cp {
			t.Fatalf("instance %d: first bound %d, critical path %d", i, log.bounds[0], cp)
		}
		var rb, lb int64
		for _, b := range want.RouterBits {
			rb += b
		}
		for _, b := range want.LinkBits {
			lb += b
		}
		if tot := (wormhole.Traffic{RouterBits: rb, LinkBits: lb, TSVBits: want.TSVBits, CoreBits: want.CoreBits}); log.traffic[0] != tot {
			t.Fatalf("instance %d: traffic totals %+v, full run %+v", i, log.traffic[0], tot)
		}
		for j, b := range log.bounds {
			if b > want.ExecCycles || (j > 0 && b <= log.bounds[j-1]) {
				t.Fatalf("instance %d: bound %d of %v exceeds texec %d or does not grow", i, j, log.bounds, want.ExecCycles)
			}
		}
		grew += len(log.bounds) - 1

		stopAt := 1 + rng.Intn(len(log.bounds))
		cut := &boundLog{stopAt: stopAt}
		res, booked, err := sim.RunBelow(mp, below, cut)
		if err != nil || res != nil || (booked == 0) != (stopAt == 1) || booked >= len(fx.g.Packets) {
			t.Fatalf("instance %d: stop at offer %d of %d returned result %v, %d booked, error %v",
				i, stopAt, len(log.bounds), res != nil, booked, err)
		}
	}
	if grew == 0 {
		t.Fatal("no bound ever grew past the critical path: the prefix check is vacuous")
	}
}

// TestDefaultConfigBooksOnlyArbitratedPorts pins the booking rule on
// the paper's configuration (unbounded buffers, tr ≥ tl, free core
// links): a packet crossing K routers books only its K−1 inter-tile
// output ports, and nothing else of the run is kept.
func TestDefaultConfigBooksOnlyArbitratedPorts(t *testing.T) {
	mesh, err := topology.NewMesh(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	g := randomRefCDCG(rng, 10, 40)
	sim, err := wormhole.NewSimulator(mesh, noc.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := mapping.Random(rng, g.NumCores(), mesh.NumTiles())
	if err != nil {
		t.Fatal(err)
	}
	sim.RecordOccupancy = true
	rec, err := sim.Run(mp)
	if err != nil {
		t.Fatal(err)
	}
	sim.RecordOccupancy = false
	var wantPorts int
	for _, p := range rec.Packets {
		wantPorts += p.K - 1
	}
	sc := sim.NewScratch()
	if _, err := sim.RunScratch(mp, sc); err != nil {
		t.Fatal(err)
	}
	ports, others := wormhole.ScratchBookings(sc)
	if ports != wantPorts || others != 0 {
		t.Fatalf("booked %d port and %d other intervals, want %d ports (Σ K−1) and nothing else",
			ports, others, wantPorts)
	}
	// A recorded run keeps every resource: 2K+1 bookings per packet.
	var all int
	for _, p := range rec.Packets {
		all += 2*p.K + 1
	}
	var kept int
	for kind := wormhole.KindRouterPort; kind <= wormhole.KindCoreIn; kind++ {
		for i := 0; i < mesh.NumTiles()*wormhole.NumPorts; i++ {
			kept += len(rec.Occupancies(kind, i))
		}
	}
	if kept != all {
		t.Fatalf("recorded run kept %d bookings, want %d (2K+1 per packet)", kept, all)
	}
}
