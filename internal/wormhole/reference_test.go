package wormhole_test

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// This file holds an independent reference for the wormhole simulator: a
// plain, slow re-statement of its timing model that shares nothing with
// the optimised kernel — no route table, no hop descriptors, no scratch,
// no event heap. Routes come straight from Mesh.Route/RouteFault, every
// resource (arbitrated or not) is booked in a sorted interval slice, and
// acquisition is a brute-force earliest fit over that slice.

// refKind names the resource families of the timing model.
type refKind int

const (
	refCoreOut refKind = iota
	refPort
	refLink
	refCoreIn
)

// refKey identifies one resource.
type refKey struct {
	kind refKind
	idx  int
}

// refInterval is one closed booking [start, end].
type refInterval struct{ start, end int64 }

// refStep is one resource traversal of a packet, in route order.
type refStep struct {
	key        refKey
	arbitrated bool
	hold       int64 // busy through [t, t+hold]
	rate       int64 // per-flit cycles of the hop
	vertical   bool  // a TSV link, or a port feeding one

	t, stall int64
}

// refStalls totals the stall cycles packets spent waiting for inter-tile
// links, split by link orientation.
type refStalls struct{ planar, vertical int64 }

// refBits is the bit volume that traversed each router (indexed by
// tile) and each inter-tile link (dense link index).
type refBits struct{ router, link []int64 }

// refEarliestFit returns the smallest t ≥ arrival at which [t, t+hold]
// overlaps no booking. The answer is either arrival or one past the end
// of some booking (the cycle before a minimal t > arrival is blocked by a
// booking that ends there), so trying those candidates in order finds it.
func refEarliestFit(ivs []refInterval, arrival, hold int64) int64 {
	cands := []int64{arrival}
	for _, iv := range ivs {
		if iv.end+1 > arrival {
			cands = append(cands, iv.end+1)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, c := range cands {
		free := true
		for _, iv := range ivs {
			if iv.start <= c+hold && iv.end >= c {
				free = false
				break
			}
		}
		if free {
			return c
		}
	}
	panic("unreachable: the last candidate is past every booking")
}

// refBook inserts [t, t+hold] keeping the slice sorted by start.
func refBook(book map[refKey][]refInterval, k refKey, t, hold int64) {
	ivs := append(book[k], refInterval{t, t + hold})
	sort.SliceStable(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	book[k] = ivs
}

// refSimulate runs g on mesh under mp with the reference model and
// returns the result the simulator must reproduce, the bits each router
// and link carried, and the inter-tile link stalls seen on the way. The
// Result's traffic totals are summed hop by hop.
func refSimulate(mesh *topology.Mesh, cfg noc.Config, g *model.CDCG, fs *topology.FaultSet,
	mp mapping.Mapping) (*wormhole.Result, refBits, refStalls, error) {
	tr, tl, tlv := cfg.RoutingCycles, cfg.LinkCycles, cfg.TSVCycles()
	np := len(g.Packets)
	res := &wormhole.Result{Packets: make([]wormhole.PacketSchedule, np)}
	bits := refBits{router: make([]int64, mesh.NumTiles()), link: make([]int64, mesh.NumLinks())}
	var stalls refStalls
	preds := make([][]int, np)
	for _, d := range g.Deps {
		preds[d.To] = append(preds[d.To], int(d.From))
	}
	done := make([]bool, np)
	delivered := make([]int64, np)
	book := map[refKey][]refInterval{}

	for scheduled := 0; scheduled < np; scheduled++ {
		// Next packet: the eligible one (every predecessor delivered) with
		// the smallest (start, ID).
		next, nextStart, nextReady := -1, int64(0), int64(0)
		for p := range g.Packets {
			if done[p] {
				continue
			}
			ready, eligible := int64(0), true
			for _, q := range preds[p] {
				if !done[q] {
					eligible = false
					break
				}
				ready = max(ready, delivered[q])
			}
			if !eligible {
				continue
			}
			if start := ready + g.Packets[p].Compute; next < 0 || start < nextStart {
				next, nextStart, nextReady = p, start, ready
			}
		}
		pk := g.Packets[next]
		src, dst := mp[pk.Src], mp[pk.Dst]
		route, err := mesh.RouteFault(cfg.Routing, fs, src, dst)
		if err != nil {
			return nil, bits, stalls, err
		}
		f := cfg.Flits(pk.Bits)

		// The packet's resources in route order: core output link, then
		// per router its output port and the link that port feeds (the
		// core input link at the destination).
		steps := []refStep{{key: refKey{refCoreOut, int(src)}, arbitrated: cfg.ArbitrateLocal, hold: f * tl, rate: tl}}
		for i, tile := range route.Tiles {
			if i == len(route.Tiles)-1 {
				steps = append(steps,
					refStep{key: refKey{refPort, int(tile)*wormhole.NumPorts + wormhole.LocalPort},
						arbitrated: cfg.ArbitrateLocal, hold: tr + (f-1)*tl, rate: tl},
					refStep{key: refKey{refCoreIn, int(dst)}, arbitrated: cfg.ArbitrateLocal, hold: f * tl, rate: tl})
				break
			}
			nt := route.Tiles[i+1]
			dir := topology.East
			for ; dir <= topology.Up; dir++ {
				if n, ok := mesh.Neighbor(tile, dir); ok && n == nt {
					break
				}
			}
			li, ok := mesh.LinkIndex(tile, nt)
			if dir > topology.Up || !ok {
				return nil, bits, stalls, errors.New("reference: route step joins non-adjacent tiles")
			}
			vert := mesh.LinkVertical(li)
			r := tl
			if vert {
				r = tlv
			}
			steps = append(steps,
				refStep{key: refKey{refPort, int(tile)*wormhole.NumPorts + int(dir)},
					arbitrated: true, hold: tr + (f-1)*r, rate: r, vertical: vert},
				refStep{key: refKey{refLink, li}, arbitrated: true, hold: f * r, rate: r, vertical: vert})
		}

		// Timing walk: each hop is acquired at the earliest fit at or after
		// the header's arrival; the header moves on tl after a core link,
		// tr after a router and the link's per-flit time after a link.
		h, contention, deliver := nextStart, int64(0), int64(0)
		for i := range steps {
			st := &steps[i]
			st.t = h
			if st.arbitrated {
				st.t = refEarliestFit(book[st.key], h, st.hold)
			}
			st.stall = st.t - h
			contention += st.stall
			switch st.key.kind {
			case refCoreOut:
				h = st.t + tl
			case refPort:
				h = st.t + tr
				bits.router[st.key.idx/wormhole.NumPorts] += pk.Bits
				res.Traffic.RouterBits += pk.Bits
			case refLink:
				h = st.t + st.rate
				bits.link[st.key.idx] += pk.Bits
				res.Traffic.LinkBits += pk.Bits
				if st.vertical {
					res.Traffic.TSVBits += pk.Bits
					stalls.vertical += st.stall
				} else {
					stalls.planar += st.stall
				}
			case refCoreIn:
				deliver = st.t + st.hold
			}
		}
		for _, st := range steps {
			refBook(book, st.key, st.t, st.hold)
		}

		res.Traffic.CoreBits += 2 * pk.Bits
		res.Packets[next] = wormhole.PacketSchedule{ID: pk.ID, Ready: nextReady, Start: nextStart,
			Delivered: deliver, Contention: contention, K: len(route.Tiles), Flits: f}
		res.TotalContention += contention
		res.ExecCycles = max(res.ExecCycles, deliver)
		done[next], delivered[next] = true, deliver
	}
	return res, bits, stalls, nil
}

// routeBits rebuilds the bits each router and link carries when g runs
// on mesh under mp from the mapping's routes alone, as the reference
// routes them: every packet adds its bits to each router and inter-tile
// link of its route.
func routeBits(mesh *topology.Mesh, cfg noc.Config, g *model.CDCG, fs *topology.FaultSet,
	mp mapping.Mapping) (refBits, error) {
	bits := refBits{router: make([]int64, mesh.NumTiles()), link: make([]int64, mesh.NumLinks())}
	for _, pk := range g.Packets {
		route, err := mesh.RouteFault(cfg.Routing, fs, mp[pk.Src], mp[pk.Dst])
		if err != nil {
			return bits, err
		}
		for i, tile := range route.Tiles {
			bits.router[tile] += pk.Bits
			if i+1 < len(route.Tiles) {
				li, ok := mesh.LinkIndex(tile, route.Tiles[i+1])
				if !ok {
					return bits, errors.New("reference: route step joins non-adjacent tiles")
				}
				bits.link[li] += pk.Bits
			}
		}
	}
	return bits, nil
}

// recordedBits sums, per router and per inter-tile link, the bits of the
// packets a recording run's occupancies hold there.
func recordedBits(res *wormhole.Result, mesh *topology.Mesh, g *model.CDCG) refBits {
	bits := refBits{router: make([]int64, mesh.NumTiles()), link: make([]int64, mesh.NumLinks())}
	for tile := range bits.router {
		for _, o := range res.Occupancies(wormhole.KindRouter, tile) {
			bits.router[tile] += g.Packets[o.Packet].Bits
		}
	}
	for li := range bits.link {
		for _, o := range res.Occupancies(wormhole.KindLink, li) {
			bits.link[li] += g.Packets[o.Packet].Bits
		}
	}
	return bits
}

// refFixture is one random small instance of the reference sweep.
type refFixture struct {
	mesh *topology.Mesh
	cfg  noc.Config
	g    *model.CDCG
	fs   *topology.FaultSet
}

// linksNeverStall reports the condition under which no packet can wait
// for an inter-tile link of per-flit time r: a routing delay of at least
// r (see the kernel's link-booking rule).
func linksNeverStall(cfg noc.Config, r int64) bool {
	return cfg.RoutingCycles >= r
}

// randomRefFixture draws a small instance: a 2-D mesh, 3-D mesh or torus
// (2-wide tori included, where two directions reach one neighbour), a
// routing order, routing/link/TSV times on both sides of the link-stall
// condition, arbitrated or free core links, an
// optional fault set, and a random dependent application.
func randomRefFixture(t *testing.T, rng *rand.Rand) refFixture {
	t.Helper()
	var mesh *topology.Mesh
	var err error
	switch rng.Intn(6) {
	case 0, 1:
		mesh, err = topology.NewMesh(1+rng.Intn(4), 2+rng.Intn(3))
	case 2:
		mesh, err = topology.NewTorus(2, 2+rng.Intn(2))
	case 3:
		mesh, err = topology.NewTorus(3, 2+rng.Intn(2))
	case 4:
		mesh, err = topology.NewMesh3D(1+rng.Intn(2), 2, 2+rng.Intn(2))
	default:
		mesh, err = topology.NewTorus3D(2, 2, 2)
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg := noc.Default()
	cfg.RoutingCycles = int64(rng.Intn(4))
	cfg.LinkCycles = 1 + int64(rng.Intn(2))
	cfg.FlitBits = []int{1, 4, 16, 64}[rng.Intn(4)]
	cfg.ArbitrateLocal = rng.Intn(3) == 0
	if mesh.D() > 1 {
		cfg.TSVLinkCycles = int64(rng.Intn(5))
		cfg.Routing = []topology.RoutingAlgo{topology.RouteXYZ, topology.RouteZYX, topology.RouteFA}[rng.Intn(3)]
	} else {
		cfg.Routing = []topology.RoutingAlgo{topology.RouteXY, topology.RouteYX, topology.RouteFA}[rng.Intn(3)]
	}
	var fs *topology.FaultSet
	if rng.Intn(4) == 0 {
		fs = topology.NewFaultSet(mesh)
		for i := 0; i < 1+rng.Intn(2); i++ {
			a := topology.TileID(rng.Intn(mesh.NumTiles()))
			if rng.Intn(5) == 0 {
				_ = fs.FailRouter(a) // a refused fault leaves the set as it was
				continue
			}
			if b, ok := mesh.Neighbor(a, topology.Direction(rng.Intn(6))); ok {
				_ = fs.FailLink(a, b)
			}
		}
	}
	g := randomRefCDCG(rng, 2+rng.Intn(mesh.NumTiles()-1), 1+rng.Intn(24))
	return refFixture{mesh: mesh, cfg: cfg, g: g, fs: fs}
}

// randomRefCDCG draws an application of nc cores and np packets whose
// dependences point from lower to higher packet IDs.
func randomRefCDCG(rng *rand.Rand, nc, np int) *model.CDCG {
	g := &model.CDCG{Cores: model.MakeCores(nc)}
	for i := 0; i < np; i++ {
		s := model.CoreID(rng.Intn(nc))
		d := model.CoreID(rng.Intn(nc - 1))
		if d >= s {
			d++
		}
		g.Packets = append(g.Packets, model.Packet{ID: model.PacketID(i), Src: s, Dst: d,
			Compute: int64(rng.Intn(30)), Bits: 1 + int64(rng.Intn(300))})
		for j := 0; j < i; j++ {
			if rng.Float64() < 0.2 {
				g.Deps = append(g.Deps, model.Dep{From: model.PacketID(j), To: model.PacketID(i)})
			}
		}
	}
	return g
}

// refInstances is the size of the reference sweep.
const refInstances = 1200

// refSweep draws the reference sweep — refInstances random fixtures
// from one fixed seed, each with a simulator, one scratch and two random
// mappings run through it — and calls check for every mapping. Every
// test that walks the sweep sees the same fixtures and mappings.
func refSweep(t *testing.T, check func(i, run int, fx refFixture, sim *wormhole.Simulator, sc *wormhole.Scratch, mp mapping.Mapping)) {
	t.Helper()
	rng := rand.New(rand.NewSource(2005))
	for i := 0; i < refInstances; i++ {
		fx := randomRefFixture(t, rng)
		sim, err := wormhole.NewSimulatorFaults(fx.mesh, fx.cfg, fx.g, fx.fs)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		// The fixtures are below the core count at which
		// NewSimulatorFaults turns the port-load bound on.
		sim.PortLoadBound = true
		sc := sim.NewScratch()
		for run := 0; run < 2; run++ {
			mp, err := mapping.Random(rng, fx.g.NumCores(), fx.mesh.NumTiles())
			if err != nil {
				t.Fatal(err)
			}
			check(i, run, fx, sim, sc, mp)
		}
	}
}

// TestSimulatorMatchesReference diffs RunScratch against the reference
// model on random small instances: texec, every PacketSchedule, the
// router/link/TSV/core traffic totals and the total contention must be
// identical, and an unreachable route must fail both. Two mappings run
// through one scratch per instance, so scratch reuse is covered too. A
// recording run of each mapping must return the same Result, and the
// bits of the packets its occupancies hold on each router and link must
// be the bits the reference routed there.
//
// From the reference's own bookings it also checks the link-stall
// condition the kernel relies on: with a routing delay of at least a
// link's per-flit time, no packet ever waits for
// that link — and the sweep does see link stalls when the condition
// fails, so the check is not vacuous.
func TestSimulatorMatchesReference(t *testing.T) {
	var compared, unreachable int
	var planarFail, vertFail refStalls // stalls where the condition fails
	refSweep(t, func(i, run int, fx refFixture, sim *wormhole.Simulator, sc *wormhole.Scratch, mp mapping.Mapping) {
		want, wantBits, stalls, wantErr := refSimulate(fx.mesh, fx.cfg, fx.g, fx.fs, mp)
		got, gotErr := sim.RunScratch(mp, sc)
		if wantErr != nil || gotErr != nil {
			if !errors.Is(wantErr, topology.ErrUnreachable) || !errors.Is(gotErr, wormhole.ErrUnreachable) {
				t.Fatalf("instance %d run %d: reference error %v, simulator error %v", i, run, wantErr, gotErr)
			}
			unreachable++
			return
		}
		if got.ExecCycles != want.ExecCycles || got.Traffic != want.Traffic ||
			got.TotalContention != want.TotalContention || !reflect.DeepEqual(got.Packets, want.Packets) {
			t.Fatalf("instance %d run %d (%dx%dx%d %s, cfg %+v, faults %v, mapping %v):\nsimulator %+v\nreference %+v",
				i, run, fx.mesh.W(), fx.mesh.H(), fx.mesh.D(), fx.mesh.Kind(), fx.cfg, fx.fs.Elements(), mp, got, want)
		}
		rec, err := wormhole.RunRecording(sim, mp)
		if err != nil {
			t.Fatalf("instance %d run %d: recording run: %v", i, run, err)
		}
		if rec.ExecCycles != got.ExecCycles || rec.Traffic != got.Traffic ||
			rec.TotalContention != got.TotalContention || !reflect.DeepEqual(rec.Packets, got.Packets) {
			t.Fatalf("instance %d run %d: recording run %+v, plain run %+v", i, run, rec, got)
		}
		if gotBits := recordedBits(rec, fx.mesh, fx.g); !reflect.DeepEqual(gotBits, wantBits) {
			t.Fatalf("instance %d run %d: recorded bits per router %v and link %v, reference %v and %v",
				i, run, gotBits.router, gotBits.link, wantBits.router, wantBits.link)
		}
		compared++

		if linksNeverStall(fx.cfg, fx.cfg.LinkCycles) {
			if stalls.planar != 0 {
				t.Fatalf("instance %d run %d: %d stall cycles on planar links although tr ≥ tl",
					i, run, stalls.planar)
			}
		} else {
			planarFail.planar += stalls.planar
		}
		if linksNeverStall(fx.cfg, fx.cfg.TSVCycles()) {
			if stalls.vertical != 0 {
				t.Fatalf("instance %d run %d: %d stall cycles on TSV links although tr ≥ tTSV",
					i, run, stalls.vertical)
			}
		} else {
			vertFail.vertical += stalls.vertical
		}
	})
	t.Logf("%d runs compared, %d unreachable; stall cycles where the condition fails: planar %d, TSV %d",
		compared, unreachable, planarFail.planar, vertFail.vertical)
	if compared < 2*refInstances*3/4 || unreachable == 0 {
		t.Fatalf("sweep too thin: %d runs compared, %d unreachable", compared, unreachable)
	}
	if planarFail.planar == 0 || vertFail.vertical == 0 {
		t.Fatalf("no link stall seen where the condition fails (planar %d, TSV %d cycles): the check is vacuous",
			planarFail.planar, vertFail.vertical)
	}
}
