package wormhole_test

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mapping"
	"repro/internal/noc"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// boundLog records every bound it is offered and stops at the stopAt-th
// offer (never when stopAt is 0).
type boundLog struct {
	bounds  []int64
	traffic []wormhole.Traffic
	stopAt  int
}

func (b *boundLog) offer(t wormhole.Traffic, texecBound int64) bool {
	b.bounds = append(b.bounds, texecBound)
	b.traffic = append(b.traffic, t)
	return len(b.bounds) == b.stopAt
}

// run prices mp on sc in core.CDCM.PriceBelow's order: it offers Bound's
// critical path, then, when PortLoadBound is set and the port load is
// larger, that load, and it simulates mp with RunScratch unless an offer
// stopped it. It returns the Result, nil after a stop.
func (b *boundLog) run(sim *wormhole.Simulator, mp mapping.Mapping, sc *wormhole.Scratch) (*wormhole.Result, error) {
	cp, t, err := sim.Bound(mp, sc)
	if err != nil {
		return nil, err
	}
	if b.offer(t, cp) {
		return nil, nil
	}
	if sim.PortLoadBound {
		load, err := sim.PortLoad(mp, sc)
		if err != nil {
			return nil, err
		}
		if load > cp && b.offer(t, load) {
			return nil, nil
		}
	}
	return sim.RunScratch(mp, sc)
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

// refPortLoad is the port-load bound of g under mp, computed from
// Mesh.RouteFault routes and the closed-interval rule: an arbitrated
// output port grants its packets disjoint closed intervals [t, t+hold],
// so consecutive grants lie at least hold+1 cycles apart, and the packet
// granted last must still reach its core. Every packet adds
// min(hold+1, d) to each arbitrated port it requests — every inter-tile
// port, and the local port when ArbitrateLocal is set — where
// hold = tr + (n−1)·r for the per-flit time r of the link the port feeds
// (tl at the local port) and d is its uncontended time from that grant to
// delivery: tr plus the link time per router from there on, then n·tl
// into the core. It returns the largest per-port sum.
func refPortLoad(t *testing.T, fx refFixture, mp mapping.Mapping) int64 {
	t.Helper()
	cfg := fx.cfg
	tr, tl := cfg.RoutingCycles, cfg.LinkCycles
	n := fx.mesh.NumTiles()
	// A port is its router and the tile it feeds, n for the local core.
	load := make([]int64, n*(n+1))
	for _, pk := range fx.g.Packets {
		r, err := fx.mesh.RouteFault(cfg.Routing, fx.fs, mp[pk.Src], mp[pk.Dst])
		if err != nil {
			t.Fatal(err)
		}
		f := cfg.Flits(pk.Bits)
		last := len(r.Tiles) - 1
		rate := make([]int64, len(r.Tiles))
		for i := range r.Tiles {
			rate[i] = tl
			if i < last && fx.mesh.Coord(r.Tiles[i]).Z != fx.mesh.Coord(r.Tiles[i+1]).Z {
				rate[i] = cfg.TSVCycles()
			}
		}
		for i, tile := range r.Tiles {
			next := n
			if i < last {
				next = int(r.Tiles[i+1])
			} else if !cfg.ArbitrateLocal {
				break
			}
			d := f * tl
			for j := i; j <= last; j++ {
				d += tr
				if j < last {
					d += rate[j]
				}
			}
			load[int(tile)*(n+1)+next] += min(tr+(f-1)*rate[i]+1, d)
		}
	}
	return slices.Max(load)
}

// TestPortLoadBoundMatchesReference pins the port-load bound on every
// fixture and mapping of the reference sweep — 2-D, 3-D, torus, faults,
// ArbitrateLocal on and off — and along a
// random swap sequence from each mapping, all through one scratch per
// fixture: the bounds offered in PriceBelow's order are the critical
// path and, when it is larger, refPortLoad's load; every bound is at
// most the reference texec; and the per-port loads the scratch keeps,
// updated from one mapping to the next, equal a recompute on a fresh
// scratch.
func TestPortLoadBoundMatchesReference(t *testing.T) {
	swaps := rand.New(rand.NewSource(21))
	var above, incremental, local int
	refSweep(t, func(i, run int, fx refFixture, sim *wormhole.Simulator, sc *wormhole.Scratch, mp mapping.Mapping) {
		occ := mp.Occupants(fx.mesh.NumTiles())
		for step := 0; step <= 6; step++ {
			if step > 0 {
				a := mp[swaps.Intn(len(mp))]
				b := topology.TileID(swaps.Intn(len(occ)))
				mapping.SwapTiles(mp, occ, a, b)
			}
			_, prev, hadPrev := wormhole.ScratchLoads(sc)
			want, _, wantErr := refSimulate(fx.mesh, fx.cfg, fx.g, fx.fs, mp)
			log := &boundLog{}
			_, err := log.run(sim, mp, sc)
			if wantErr != nil || err != nil {
				if !errors.Is(wantErr, topology.ErrUnreachable) || !errors.Is(err, wormhole.ErrUnreachable) {
					t.Fatalf("instance %d run %d step %d: reference error %v, bounded run error %v", i, run, step, wantErr, err)
				}
				continue
			}
			cp, load := refCriticalPath(t, fx, mp), refPortLoad(t, fx, mp)
			wantPre := []int64{cp}
			if load > cp {
				wantPre = append(wantPre, load)
				above++
			}
			if !slices.Equal(log.bounds, wantPre) {
				t.Fatalf("instance %d run %d step %d: bounds %v, want %v (critical path %d, port load %d)",
					i, run, step, log.bounds, wantPre, cp, load)
			}
			for _, b := range log.bounds {
				if b > want.ExecCycles {
					t.Fatalf("instance %d run %d step %d: bound %d of %v exceeds texec %d",
						i, run, step, b, log.bounds, want.ExecCycles)
				}
			}

			loads, of, ok := wormhole.ScratchLoads(sc)
			if !ok {
				continue
			}
			if fx.cfg.ArbitrateLocal {
				local++
			}
			fresh := sim.NewScratch()
			if got, err := sim.PortLoad(of, fresh); err != nil || got != slices.Max(loads) {
				t.Fatalf("instance %d run %d step %d: fresh port load %d (%v), kept loads peak at %d", i, run, step, got, err, slices.Max(loads))
			}
			if full, _, _ := wormhole.ScratchLoads(fresh); !slices.Equal(loads, full) {
				t.Fatalf("instance %d run %d step %d: updated loads %v, recomputed %v", i, run, step, loads, full)
			}
			if hadPrev && !slices.Equal(prev, of) && 2*movedPackets(fx, prev, of) <= len(fx.g.Packets) {
				incremental++
			}
		}
	})
	t.Logf("%d load bounds above the critical path, %d incremental updates checked, %d with ArbitrateLocal",
		above, incremental, local)
	if above == 0 || incremental == 0 || local == 0 {
		t.Fatalf("sweep too thin: %d load bounds above the critical path, %d incremental updates, %d with ArbitrateLocal",
			above, incremental, local)
	}
}

// movedPackets counts, over the cores placed differently by a and b, the
// packets each sends or receives.
func movedPackets(fx refFixture, a, b mapping.Mapping) int {
	var n int
	for _, pk := range fx.g.Packets {
		if a[pk.Src] != b[pk.Src] {
			n++
		}
		if a[pk.Dst] != b[pk.Dst] {
			n++
		}
	}
	return n
}

// TestPortLoadBoundGate checks where NewSimulator turns the port-load
// bound on, from 40 cores (where a swap moves at most a tenth of the
// packets on average), and that a simulator with it off offers only the
// critical path, even where the port load is larger.
func TestPortLoadBoundGate(t *testing.T) {
	mesh, err := topology.NewMesh(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(40))
	for _, nc := range []int{39, 40} {
		sim, err := wormhole.NewSimulator(mesh, noc.Default(), randomRefCDCG(rng, nc, 2*nc))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sim.PortLoadBound, nc >= 40; got != want {
			t.Fatalf("%d cores: PortLoadBound %v, want %v", nc, got, want)
		}
	}
	for try := 0; ; try++ {
		if try == 200 {
			t.Fatal("no fixture of 200 has a port load above its critical path")
		}
		fx := randomRefFixture(t, rng)
		sim, err := wormhole.NewSimulatorFaults(fx.mesh, fx.cfg, fx.g, fx.fs)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := mapping.Random(rng, fx.g.NumCores(), fx.mesh.NumTiles())
		if err != nil {
			t.Fatal(err)
		}
		if sim.PortLoadBound {
			t.Fatalf("a %d-core fixture has PortLoadBound on", fx.g.NumCores())
		}
		log := &boundLog{}
		if _, err := log.run(sim, mp, sim.NewScratch()); err != nil {
			continue // unreachable under the fixture's faults
		}
		cp := refCriticalPath(t, fx, mp)
		if refPortLoad(t, fx, mp) <= cp {
			continue
		}
		if !slices.Equal(log.bounds, []int64{cp}) {
			t.Fatalf("bound off: bounds %v, want [%d]", log.bounds, cp)
		}
		return
	}
}

// TestRunBelowBoundSound is the cut-off soundness property, on the
// reference sweep's fixtures: the bounds Bound and PortLoad offer in
// PriceBelow's order are the uncontended critical path and, when it is
// larger, the port load (refPortLoad), neither exceeds the final texec,
// the traffic totals are the full run's aggregates, and a run that is
// never stopped returns exactly RunScratch's Result on a fresh scratch:
// the bounds leave no state behind that changes a run. Stopping at
// either offer returns no Result.
func TestRunBelowBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(1404))
	var stops [3]int
	for i := 0; i < refInstances/2; i++ {
		fx := randomRefFixture(t, rng)
		sim, err := wormhole.NewSimulatorFaults(fx.mesh, fx.cfg, fx.g, fx.fs)
		if err != nil {
			t.Fatal(err)
		}
		sim.PortLoadBound = true
		sc, below := sim.NewScratch(), sim.NewScratch()
		mp, err := mapping.Random(rng, fx.g.NumCores(), fx.mesh.NumTiles())
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := sim.RunScratch(mp, sc)
		log := &boundLog{}
		got, err := log.run(sim, mp, below)
		if wantErr != nil || err != nil {
			if !errors.Is(wantErr, wormhole.ErrUnreachable) || !errors.Is(err, wormhole.ErrUnreachable) {
				t.Fatalf("instance %d: RunScratch error %v, bounded run error %v", i, wantErr, err)
			}
			continue
		}
		if got == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("instance %d: uncut bounded run diverges from RunScratch", i)
		}
		cp, load := refCriticalPath(t, fx, mp), refPortLoad(t, fx, mp)
		wantPre := []int64{cp}
		if load > cp {
			wantPre = append(wantPre, load)
		}
		if !slices.Equal(log.bounds, wantPre) {
			t.Fatalf("instance %d: bounds %v, want %v (critical path %d, port load %d)",
				i, log.bounds, wantPre, cp, load)
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
			if b > want.ExecCycles {
				t.Fatalf("instance %d: bound %d of %v exceeds texec %d", i, j, log.bounds, want.ExecCycles)
			}
		}

		stopAt := 1 + rng.Intn(len(log.bounds))
		cut := &boundLog{stopAt: stopAt}
		res, err := cut.run(sim, mp, below)
		if err != nil || res != nil || len(cut.bounds) != stopAt {
			t.Fatalf("instance %d: stop at offer %d of %d returned result %v after %d offers, error %v",
				i, stopAt, len(log.bounds), res != nil, len(cut.bounds), err)
		}
		stops[stopAt]++
	}
	if stops[1] == 0 || stops[2] == 0 {
		t.Fatalf("stops at the critical path %d, at the port load %d: a stop check is vacuous", stops[1], stops[2])
	}
}

// TestDefaultConfigBooksOnlyArbitratedPorts pins the booking rule on
// the paper's configuration (tr ≥ tl, free core
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
	rec, err := wormhole.RunRecording(sim, mp)
	if err != nil {
		t.Fatal(err)
	}
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
