package wormhole

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
)

// ErrUnreachable reports that a simulated mapping routes at least one
// packet between tiles that the simulator's fault set partitions (see
// NewSimulatorFaults). It is a static sentinel so the allocation-free run
// path can report it without allocating; resilience scoring treats it as
// a documented penalty, not a hard failure. errors.Is(err,
// topology.ErrUnreachable) also matches it.
var ErrUnreachable = fmt.Errorf("wormhole: packet route crosses a faulted partition: %w", topology.ErrUnreachable)

// ResourceKind classifies the NoC resources tracked by the simulator.
type ResourceKind int

// Resource kinds.
//
// Routers are crossbars: packets only contend when they request the same
// OUTPUT port. (The paper's Figure 3(a) shows A→B and B→F overlapping in
// router τ1 — different outputs — while A→F stalls behind B→F, which holds
// the same τ1→τ3 output.) KindRouterPort is therefore the exclusive
// resource: index = tile*NumPorts + direction, with direction 0..5 the
// topology directions (E, W, S, N plus the vertical Down/Up of 3-D grids)
// and 6 the local (core) port. KindRouter is the display view of a
// router: the union of its ports' traffic, each span stretched back to
// the packet's arrival (time spent waiting in the input buffer included),
// exactly like the paper's router annotations; those spans may overlap.
//
// CoreOut is the link from an IP core into its local router; CoreIn the
// link from a router down to its core. They are distinct full-duplex
// resources: Figure 3 shows a core's outgoing and incoming packets
// overlapping in time.
const (
	KindRouter ResourceKind = iota
	KindRouterPort
	KindLink
	KindCoreOut
	KindCoreIn
)

// NumPorts is the number of output ports per router:
// E, W, S, N, Down, Up, Local. 2-D routers simply never book the two
// vertical ports, so the port-index layout is uniform across 2-D and 3-D
// grids.
const NumPorts = 7

// LocalPort is the output-port index of the router→core direction.
const LocalPort = 6

func (k ResourceKind) String() string {
	switch k {
	case KindRouter:
		return "router"
	case KindRouterPort:
		return "router-port"
	case KindLink:
		return "link"
	case KindCoreOut:
		return "core-out"
	case KindCoreIn:
		return "core-in"
	}
	return "?"
}

// PacketSchedule is the simulated timeline of one CDCG packet.
type PacketSchedule struct {
	ID model.PacketID
	// Ready is the cycle at which every dependence was satisfied (0 for
	// packets that only depend on Start).
	Ready int64
	// Start is Ready + the packet's computation time: the cycle the first
	// flit enters the source core's output link.
	Start int64
	// Delivered is the cycle the last flit reaches the destination core.
	Delivered int64
	// Contention is the total stall time in cycles spent waiting for busy
	// output ports (and, degenerately, links) along the route.
	Contention int64
	// K is the number of routers traversed.
	K int
	// Flits is the packet length in flits.
	Flits int64
}

// ComputeDelay returns Start-Ready (the paper's "computation delay").
func (p PacketSchedule) ComputeDelay() int64 { return p.Start - p.Ready }

// Result is the outcome of simulating one CDCG on one mapping.
type Result struct {
	// ExecCycles is texec: the cycle the last packet is delivered.
	ExecCycles int64
	// Packets holds one schedule per CDCG packet, indexed by PacketID.
	Packets []PacketSchedule
	// RouterBits[t] is the total bit volume that traversed the router of
	// tile t (feeds the ERbit term of the energy model).
	RouterBits []int64
	// LinkBits[l] is the total bit volume that traversed inter-tile link
	// l (dense link index; feeds the ELbit term).
	LinkBits []int64
	// CoreBits is the total bit volume over core↔router links (2 per
	// packet; feeds the optional ECbit term).
	CoreBits int64
	// TSVBits is the subset of the LinkBits total that crossed vertical
	// (TSV) links — always zero on depth-1 grids. It feeds the ETSVbit
	// term of the 3-D energy model.
	TSVBits int64
	// TotalContention is the sum of all packet contention delays.
	TotalContention int64

	occ *occStore // nil unless the run recorded occupancies
}

// occStore holds per-resource occupancy lists for rendering/analysis runs.
type occStore struct {
	routerSpans []busyList // display spans incl. buffer wait; may overlap
	ports       []busyList
	links       []busyList
	coreOut     []busyList
	coreIn      []busyList
}

// Occupancies returns the recorded busy intervals of a resource, sorted by
// start time, or nil if the run did not record them (its scratch's
// RecordOccupancy was false) or the resource index is out of range. For
// KindRouter the intervals include input-buffer waiting and may overlap;
// all other kinds are exclusive and never overlap.
func (r *Result) Occupancies(kind ResourceKind, index int) []Occupancy {
	if r.occ == nil {
		return nil
	}
	var ls []busyList
	switch kind {
	case KindRouter:
		ls = r.occ.routerSpans
	case KindRouterPort:
		ls = r.occ.ports
	case KindLink:
		ls = r.occ.links
	case KindCoreOut:
		ls = r.occ.coreOut
	case KindCoreIn:
		ls = r.occ.coreIn
	}
	if index < 0 || index >= len(ls) {
		return nil
	}
	return ls[index].snapshot()
}

// Simulator evaluates mappings of one CDCG on one NoC. Everything bound
// at NewSimulator time — the full route table as per-router hop
// descriptors, the per-packet constants and the dependence graph — is
// immutable afterwards, so one Simulator is safe to share across
// goroutines as long as each goroutine runs with its own Scratch
// (NewScratch + RunScratch, Bound, PortLoad): that is how the parallel
// search engines evaluate the CDCM objective concurrently without
// re-parsing or locking. Run, the convenience path, simulates on a fresh
// scratch per call, so it is safe for concurrent use too.
type Simulator struct {
	Mesh *topology.Mesh
	Cfg  noc.Config
	G    *model.CDCG

	// PortLoadBound tells a pricer that skips runs at certified bounds
	// (core.CDCM.PriceBelow) to offer PortLoad once Bound is declined.
	// NewSimulatorFaults sets it when a swap moves at most a tenth of the
	// packets on average, that is on graphs of 40 cores or more: on
	// smaller ones the update costs more than the simulations the bound
	// saves. It changes only which runs may be skipped, never a Result,
	// so the tests set it to check the bound on small graphs.
	PortLoadBound bool

	dg       *graph.Digraph
	numTiles int
	// pkts holds each packet's constants — endpoints, bits, compute time,
	// flit count and the four per-hop hold times — in one slice, so the
	// run loop touches one cache line per packet.
	pkts []pktConst
	// baseIndeg and initHeap are the dependence state every run starts
	// from: per-packet in-degrees and the heap of source packets (keyed
	// by their compute time). Precomputing them turns per-run scheduling
	// setup into two copies.
	baseIndeg []int
	initHeap  []pktKey

	// The full route table, precomputed at construction: the route from
	// src to dst is routes[routeOff[src*n+dst]:routeOff[src*n+dst+1]], one
	// descriptor per router traversed (see hop). Flattening into one
	// backing array keeps the table cache-friendly and the lookup
	// branch-free — no lazy fill, so concurrent RunScratch lanes never
	// write here. A descriptor is as wide as the tile ID it replaces, so
	// the table costs O(n²·avg-route-length) words, the same as a plain
	// tile table. core.Instance builds it once per run.
	routeOff []int32
	routes   []hop
	// unreach[src*n+dst] marks tile pairs the fault set partitions; it is
	// nil on an intact simulator, so the intact hot loop pays a single nil
	// check.
	unreach []bool

	// linkFree and tsvFree mark the configurations in which no packet
	// can wait for a planar or a vertical inter-tile link (see
	// NewSimulatorFaults): their bookings are then skipped unless a run
	// records occupancies.
	linkFree, tsvFree bool
	// topo is a topological order of the packets; Bound walks it
	// backwards to price each packet's uncontended remaining path.
	topo []int32
	// The port-load bound's index (see NewSimulatorFaults): the packets
	// core c sends or receives are coreRefs[coreOff[c]:coreOff[c+1]], so
	// a swap re-adds only theirs.
	coreOff  []int32
	coreRefs []coreRef

	initOnce bool
}

// hop describes one router of a precomputed route: the output port the
// packet requests there (the router's tile is port/NumPorts) and the link
// that port feeds — a dense link index, ^index for a vertical (TSV) link,
// or localHop at the destination router, whose output is the local core
// port. The run loop resolves each router of a route with one 8-byte
// load.
type hop struct {
	port int32
	link int32
}

// localHop marks the final router of a route in hop.link. No link index
// complements to it: that would take 2³¹ links.
const localHop = math.MinInt32

// coreRef is one packet of a core's port-load index: the packet, and
// its source core when the indexed core is its destination (-1 when the
// indexed core is its source).
type coreRef struct{ pkt, src int32 }

// pktConst is the run-invariant data of one packet. The hold times are
// the busy durations of the hops it books: linkHold and portHold on
// planar hops (n·tl and tr+(n−1)·tl for n flits), vLinkHold and
// vPortHold on vertical ones, where flits stream at the TSV rate.
type pktConst struct {
	src, dst                                 int32
	bits, compute, flits                     int64
	linkHold, portHold, vLinkHold, vPortHold int64
}

// Scratch is the mutable per-lane state of one simulation: busy lists,
// the event heap, dependence counters, the port-load bound's sums and
// the reusable Result backing arrays. Results returned by RunScratch
// point into the scratch and are valid only until its next RunScratch —
// callers that keep a Result across runs must copy what they need (or
// use Run, which simulates on a scratch of its own).
//
// A Scratch belongs to the Simulator that created it and is not safe for
// concurrent use; concurrency comes from running many scratches, one per
// goroutine, against the same shared Simulator.
type Scratch struct {
	// RecordOccupancy keeps the per-resource busy lists on Results
	// produced through this scratch, for rendering (Figure 3/4/5 style
	// output; core.CDCM.Simulate records). Leave false on search lanes:
	// the snapshot allocates.
	RecordOccupancy bool

	sim *Simulator

	ports       []busyList
	links       []busyList
	coreOut     []busyList
	coreIn      []busyList
	routerSpans []busyList // only filled when RecordOccupancy
	indeg       []int
	ready       []int64
	heap        pktHeap
	seen        []model.CoreID // mapping-validation buffer, reused per run
	// load[port] is the port-load bound's sum for loadMap, the last
	// mapping PortLoad computed it for (loaded false until then).
	load    []int64
	loadMap mapping.Mapping
	loaded  bool

	res        Result
	packets    []PacketSchedule
	routerBits []int64
	linkBits   []int64
}

// book times one hop at the header's arrival: an arbitrated resource is
// granted at the earliest fit at or after it, an unarbitrated one at the
// arrival itself, regardless of existing bookings. A nil list marks a
// hop this run does not keep: it is timed but never booked.
//
//nocvet:noalloc
func book(list *busyList, arrival, hold int64, arbitrated bool, pkt model.PacketID) int64 {
	switch {
	case list == nil:
	case arbitrated:
		return list.acquire(arrival, hold, pkt)
	default:
		list.record(arrival, hold, pkt)
	}
	return arrival
}

// NewSimulator validates the inputs and prepares a reusable simulator:
// every route of the grid and the dense port/link adjacency tables are
// computed here, once, so the run hot path is pure table lookups and the
// shared state never mutates again.
func NewSimulator(mesh *topology.Mesh, cfg noc.Config, g *model.CDCG) (*Simulator, error) {
	return NewSimulatorFaults(mesh, cfg, g, nil)
}

// NewSimulatorFaults is NewSimulator with an optional fault set: the
// route table is precomputed with Mesh.RouteFault, so detours around
// failed links/routers cost nothing at run time and Scratch lanes stay
// allocation-free. Tile pairs the fault set partitions are marked in an
// unreachable bitmap; simulating a mapping that routes a packet across a
// partition fails fast with ErrUnreachable (a static sentinel — the hot
// path allocates nothing to report it). A nil or empty fault set is
// bit-identical to NewSimulator.
func NewSimulatorFaults(mesh *topology.Mesh, cfg noc.Config, g *model.CDCG, fs *topology.FaultSet) (*Simulator, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := CheckNoC(mesh, cfg, g.NumCores()); err != nil {
		return nil, err
	}
	dg, err := g.DepGraph()
	if err != nil {
		return nil, err
	}
	s := &Simulator{Mesh: mesh, Cfg: cfg, G: g, dg: dg}
	n := mesh.NumTiles()
	s.numTiles = n
	tr, tl, tlv := cfg.RoutingCycles, cfg.LinkCycles, cfg.TSVCycles()
	s.pkts = make([]pktConst, g.NumPackets())
	for i, p := range g.Packets {
		f := cfg.Flits(p.Bits)
		s.pkts[i] = pktConst{
			src: int32(p.Src), dst: int32(p.Dst),
			bits: p.Bits, compute: p.Compute, flits: f,
			linkHold: f * tl, portHold: tr + (f-1)*tl,
			vLinkHold: f * tlv, vPortHold: tr + (f-1)*tlv,
		}
	}
	s.baseIndeg = make([]int, g.NumPackets())
	var srcHeap pktHeap
	for p := range g.Packets {
		s.baseIndeg[p] = dg.InDegree(p)
		if s.baseIndeg[p] == 0 {
			srcHeap.push(pktKey{start: g.Packets[p].Compute, id: model.PacketID(p)})
		}
	}
	s.initHeap = srcHeap.a
	order, err := dg.TopoSort()
	if err != nil {
		return nil, err
	}
	s.topo = make([]int32, len(order))
	for i, p := range order {
		s.topo[i] = int32(p)
	}

	// Inter-tile links that never stall. The route table resolves every
	// step to one (port, link) pair, so a link is requested only by the
	// one output port that feeds it, exactly tr cycles after that port is
	// granted: a grant at t books the port over [t, e] with
	// e = t+tr+(n−1)·r and the link over [t+tr, e+r], where r is the
	// link's per-flit time (tl, or tTSV on a vertical link). Two grants
	// of one exclusive port lie at least one cycle apart (t' ≥ e+1), so
	// the later link request starts at t'+tr ≥ e+1+tr, which is past the
	// earlier link booking's end e+r whenever tr+1 > r. Under that
	// condition every link request is free at arrival, and the booking
	// can be skipped without changing any timing. Two cases keep the
	// bookings: recorded runs (the occupancies are the output) and a
	// link slower than tr.
	s.linkFree = tr >= tl
	s.tsvFree = tr >= tlv

	// The port-load bound. An arbitrated output port (every inter-tile
	// port, and the local port under ArbitrateLocal) grants packet p an
	// interval [t_p, t_p+h_p] that overlaps no other grant's, h_p being
	// its hold (portHold, or vPortHold feeding a TSV): acquire tests
	// exactly that interval against every booking. On integer cycles,
	// grants sorted t_1 < … < t_m therefore satisfy
	// t_{i+1} ≥ t_i + h_i + 1, and with t_1 ≥ 0 the last one has
	// t_m ≥ Σ_{i<m} (h_i+1). From its grant a packet needs at least d_p
	// more cycles to be delivered — tr plus the link time r per router
	// up to the destination, then tr + n·tl into the core — since no hop
	// can be taken before the previous one frees it. So texec ≥ t_m + d_m
	// ≥ Σ_p c_p with c_p = min(h_p+1, d_p), whichever packet is last.
	// With tl ≥ 1, d_p ≥ h_p+1 on planar ports (d ≥ 2tr + (n+1)·tl) and
	// on the local port (d = tr + n·tl), so c_p is h_p+1 there; only a
	// TSV port slower than the path after it needs the min. PortLoad
	// keeps these sums per port.
	//
	// A swap moves the packets of two of the nc cores: on average over
	// core pairs 2(2nc−3)/(nc(nc−1)) of them, each packet joining two
	// distinct cores. The bound is offered when that is at most a tenth
	// (nc ≥ 40). On smaller graphs the bound rarely cuts an annealing
	// candidate before its simulation would have stopped anyway, and
	// the update costs more than the simulation time it saves.
	nc := g.NumCores()
	s.PortLoadBound = 10*2*(2*nc-3) <= nc*(nc-1)
	s.coreOff = make([]int32, nc+1)
	for _, p := range g.Packets {
		s.coreOff[p.Src+1]++
		s.coreOff[p.Dst+1]++
	}
	for c := 0; c < nc; c++ {
		s.coreOff[c+1] += s.coreOff[c]
	}
	s.coreRefs = make([]coreRef, s.coreOff[nc])
	fill := append([]int32(nil), s.coreOff[:nc]...)
	for i, p := range g.Packets {
		s.coreRefs[fill[p.Src]] = coreRef{pkt: int32(i), src: -1}
		s.coreRefs[fill[p.Dst]] = coreRef{pkt: int32(i), src: int32(p.Src)}
		fill[p.Src]++
		fill[p.Dst]++
	}

	// Per-tile hop descriptors towards each neighbour, indexed
	// tile*numDirs+direction. Directions are scanned in the East..Up
	// enumeration order and the first one reaching a tile wins (on small
	// tori two directions can reach the same neighbour), so a route step
	// resolves to the same port and link whichever way it was produced.
	const numDirs = int(topology.Up) + 1
	nbr := make([]topology.TileID, n*numDirs)
	out := make([]hop, n*numDirs)
	for t := 0; t < n; t++ {
		for d := topology.East; d <= topology.Up; d++ {
			i := t*numDirs + int(d)
			nt, ok := mesh.Neighbor(topology.TileID(t), d)
			if !ok {
				nbr[i] = -1
				continue
			}
			li, ok := mesh.LinkIndex(topology.TileID(t), nt)
			if !ok {
				return nil, fmt.Errorf("wormhole: tiles %d and %d are not adjacent", t, nt)
			}
			nbr[i] = nt
			out[i] = hop{port: int32(t*NumPorts + int(d)), link: int32(li)}
			if mesh.LinkVertical(li) {
				out[i].link = ^int32(li)
			}
		}
	}
	// appendHops translates a tile route into hop descriptors.
	appendHops := func(tiles []topology.TileID) error {
		last := len(tiles) - 1
		for i, tile := range tiles[:last] {
			next, d := tiles[i+1], 0
			for d < numDirs && nbr[int(tile)*numDirs+d] != next {
				d++
			}
			if d == numDirs {
				return fmt.Errorf("wormhole: route step %d->%d joins non-adjacent tiles", tile, next)
			}
			s.routes = append(s.routes, out[int(tile)*numDirs+d])
		}
		s.routes = append(s.routes, hop{port: int32(int(tiles[last])*NumPorts + LocalPort), link: localHop})
		return nil
	}

	// Full route table, flattened. On the intact path route lengths are
	// K = MinHops+1, which sizes the backing array exactly before the
	// fill pass; fault-aware detours can be longer, so that total is only
	// a best-effort capacity hint there.
	s.routeOff = make([]int32, n*n+1)
	total := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			total += mesh.MinHops(topology.TileID(a), topology.TileID(b)) + 1
		}
	}
	s.routes = make([]hop, 0, total)
	if !fs.Empty() {
		s.unreach = make([]bool, n*n)
	}
	var buf []topology.TileID
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			src, dst := topology.TileID(a), topology.TileID(b)
			if s.unreach == nil {
				buf, err = mesh.AppendRoute(buf[:0], cfg.Routing, src, dst)
			} else {
				var r topology.Route
				r, err = mesh.RouteFault(cfg.Routing, fs, src, dst)
				buf = r.Tiles
			}
			switch {
			case s.unreach != nil && errors.Is(err, topology.ErrUnreachable):
				s.unreach[a*n+b] = true
			case err != nil:
				return nil, err
			default:
				if err := appendHops(buf); err != nil {
					return nil, err
				}
			}
			s.routeOff[a*n+b+1] = int32(len(s.routes))
		}
	}
	s.initOnce = true
	return s, nil
}

// CheckNoC validates an evaluator's mesh, config and core count (core.NewCWM uses it too).
func CheckNoC(mesh *topology.Mesh, cfg noc.Config, cores int) error {
	if mesh == nil {
		return errors.New("wormhole: nil mesh")
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cores > mesh.NumTiles() {
		return fmt.Errorf("wormhole: %d cores exceed %d tiles", cores, mesh.NumTiles())
	}
	return nil
}

// NewScratch allocates a fresh per-lane scratch sized for this simulator.
// Panics on a zero-value Simulator; construct with NewSimulator.
func (s *Simulator) NewScratch() *Scratch {
	if !s.initOnce {
		panic("wormhole: NewScratch on zero-value Simulator (use NewSimulator)")
	}
	n := s.numTiles
	np := s.G.NumPackets()
	return &Scratch{
		sim:         s,
		ports:       make([]busyList, n*NumPorts),
		links:       make([]busyList, s.Mesh.NumLinks()),
		coreOut:     make([]busyList, n),
		coreIn:      make([]busyList, n),
		routerSpans: make([]busyList, n),
		indeg:       make([]int, np),
		ready:       make([]int64, np),
		seen:        make([]model.CoreID, n),
		load:        make([]int64, n*NumPorts),
		loadMap:     make(mapping.Mapping, s.G.NumCores()),
		packets:     make([]PacketSchedule, np),
		routerBits:  make([]int64, n),
		linkBits:    make([]int64, s.Mesh.NumLinks()),
	}
}

// Run simulates the CDCG under the given mapping on a fresh scratch
// that records no occupancy, so the Result is independent (safe to keep
// across runs) and Run is safe for concurrent use. Search loops use
// NewScratch with RunScratch instead: Run allocates a scratch per call.
// To record occupancy, run on a scratch with RecordOccupancy set.
func (s *Simulator) Run(mp mapping.Mapping) (*Result, error) {
	if !s.initOnce {
		return nil, errors.New("wormhole: use NewSimulator")
	}
	return s.RunScratch(mp, s.NewScratch())
}

// RunScratch simulates the CDCG under the given mapping using the
// caller's scratch. It is the allocation-free hot path of the CDCM
// objective: in steady state (after the scratch's first few runs have
// grown its interval lists) a call performs no heap allocation. The
// returned Result is backed by the scratch and is only valid until the
// next RunScratch with the same scratch. Distinct scratches may run
// concurrently against one shared Simulator.
//
//nocvet:noalloc
func (s *Simulator) RunScratch(mp mapping.Mapping, sc *Scratch) (*Result, error) {
	if err := s.check(mp, sc); err != nil {
		return nil, err
	}
	if err := s.run(sc, mp); err != nil {
		return nil, err
	}
	return &sc.res, nil
}

// check validates one run's inputs, the same way for every entry point:
// an initialised simulator, a scratch of its own, a mapping of every
// core onto distinct tiles, and — on a faulted simulator — no packet
// routed across a partition. The sentinel ErrUnreachable is static, so
// the noalloc callers stay clean; resilience scoring catches it and
// applies the documented penalty instead of treating it as a failure.
//
//nocvet:noalloc
func (s *Simulator) check(mp mapping.Mapping, sc *Scratch) error {
	if !s.initOnce {
		return errors.New("wormhole: use NewSimulator")
	}
	if sc == nil || sc.sim != s {
		return errors.New("wormhole: scratch is not from this simulator's NewScratch")
	}
	if len(mp) != s.G.NumCores() {
		return fmt.Errorf("wormhole: mapping covers %d cores, CDCG has %d", len(mp), s.G.NumCores())
	}
	if err := mp.ValidateInto(s.numTiles, sc.seen); err != nil {
		return err
	}
	if s.unreach != nil {
		for i := range s.pkts {
			pc := &s.pkts[i]
			if s.unreach[int(mp[pc.src])*s.numTiles+int(mp[pc.dst])] {
				return ErrUnreachable
			}
		}
	}
	return nil
}

// Traffic is the bit volume one mapping's routes carry, summed over every
// packet: Σ bits·K router bits, Σ bits·(K−1) link bits, the vertical
// (TSV) share of the latter and 2·Σ bits core-link bits. They are the
// same integers as a full run's RouterBits and LinkBits totals, TSVBits
// and CoreBits, known before the first packet is scheduled.
type Traffic struct {
	RouterBits, LinkBits, TSVBits, CoreBits int64
}

// Bound returns the first certified lower bound on mp's texec, the
// uncontended critical path — the longest dependence chain of compute
// times plus contention-free packet durations K·(tr+tl) + V·(tTSV−tl) +
// n·tl — together with the traffic totals, at O(packets + dependences)
// on the caller's scratch. It rejects exactly the mappings and scratches
// RunScratch rejects, with the same errors, so a pricer may skip the run
// at the bound. It walks the packets in reverse topological order,
// using sc.ready as the per-packet "own duration plus the longest path
// after it" scratch (run resets it).
//
//nocvet:noalloc
func (s *Simulator) Bound(mp mapping.Mapping, sc *Scratch) (texec int64, t Traffic, err error) {
	if err := s.check(mp, sc); err != nil {
		return 0, t, err
	}
	n := s.numTiles
	tr, tl := s.Cfg.RoutingCycles, s.Cfg.LinkCycles
	vadj := s.Cfg.TSVCycles() - tl
	stacked := s.Mesh.D() > 1
	path := sc.ready
	for i := len(s.topo) - 1; i >= 0; i-- {
		p := int(s.topo[i])
		pc := &s.pkts[p]
		ri := int(mp[pc.src])*n + int(mp[pc.dst])
		route := s.routes[s.routeOff[ri]:s.routeOff[ri+1]]
		k := int64(len(route))
		var v int64
		if stacked {
			for _, hp := range route {
				if hp.link < 0 && hp.link != localHop {
					v++
				}
			}
		}
		t.RouterBits += pc.bits * k
		t.LinkBits += pc.bits * (k - 1)
		t.TSVBits += pc.bits * v
		t.CoreBits += 2 * pc.bits
		var rest int64
		for _, q := range s.dg.Succ(p) {
			rest = max(rest, path[q])
		}
		path[p] = pc.compute + k*(tr+tl) + v*vadj + pc.flits*tl + rest
		texec = max(texec, path[p])
	}
	return texec, t, nil
}

// PortLoad returns the port-load bound of mp, a certified lower bound on
// its texec: the largest per-port sum of c_p = min(h_p+1, d_p) over the
// packets crossing an arbitrated output port (see NewSimulatorFaults).
// It rejects what Bound rejects. The scratch keeps the per-port sums of
// the last mapping it bounded, so a swap re-adds only the packets of the
// cores that moved, each once; the first call adds every packet.
//
//nocvet:noalloc
func (s *Simulator) PortLoad(mp mapping.Mapping, sc *Scratch) (int64, error) {
	if err := s.check(mp, sc); err != nil {
		return 0, err
	}
	if !sc.loaded {
		for p := range s.pkts {
			s.addLoad(sc.load, p, mp, 1)
		}
		sc.loaded = true
	} else {
		s.moveLoads(sc, mp, sc.loadMap, -1)
		s.moveLoads(sc, mp, mp, 1)
	}
	copy(sc.loadMap, mp)
	var peak int64
	for _, l := range sc.load {
		peak = max(peak, l)
	}
	return peak, nil
}

// moveLoads adds sign·c_p, routed under on, for the packets of the cores
// that mp places apart from sc.loadMap, each packet once.
//
//nocvet:noalloc
func (s *Simulator) moveLoads(sc *Scratch, mp, on mapping.Mapping, sign int64) {
	for c, t := range mp {
		if sc.loadMap[c] == t {
			continue
		}
		for _, r := range s.coreRefs[s.coreOff[c]:s.coreOff[c+1]] {
			// A packet between two moved cores moves with its source.
			if r.src >= 0 && sc.loadMap[r.src] != mp[r.src] {
				continue
			}
			s.addLoad(sc.load, int(r.pkt), on, sign)
		}
	}
}

// addLoad adds sign·c_p to the load of every arbitrated output port on
// packet p's route under mp.
//
//nocvet:noalloc
func (s *Simulator) addLoad(load []int64, p int, mp mapping.Mapping, sign int64) {
	pc := &s.pkts[p]
	ri := int(mp[pc.src])*s.numTiles + int(mp[pc.dst])
	route := s.routes[s.routeOff[ri]:s.routeOff[ri+1]]
	last := len(route) - 1
	w := sign * (pc.portHold + 1)
	if s.Cfg.ArbitrateLocal {
		load[route[last].port] += w
	}
	for i, hp := range route[:last] {
		if hp.link >= 0 {
			load[hp.port] += w
		} else {
			load[hp.port] += sign * s.tsvLoad(p, route[i:])
		}
	}
}

// tsvLoad is c_p = min(h_p+1, d_p) of packet p at the TSV port that
// starts route: d_p, its uncontended time from the grant there to
// delivery, is tr plus the link time per router up to the destination,
// then tr + n·tl into the core.
//
//nocvet:noalloc
func (s *Simulator) tsvLoad(p int, route []hop) int64 {
	pc := &s.pkts[p]
	tr, tl := s.Cfg.RoutingCycles, s.Cfg.LinkCycles
	d := tr + pc.flits*tl
	for _, hp := range route[:len(route)-1] {
		d += tr + tl
		if hp.link < 0 {
			d += s.Cfg.TSVCycles() - tl
		}
	}
	return min(pc.vPortHold+1, d)
}

// run is the simulation core behind RunScratch, on inputs check has
// accepted: all mutable state lives in sc, all shared state on s is
// read-only, and the schedule is written into sc.res over the scratch's
// backing arrays.
//
//nocvet:noalloc
func (s *Simulator) run(sc *Scratch, mp mapping.Mapping) error {
	record := sc.RecordOccupancy
	res := &sc.res
	res.Packets = sc.packets
	res.RouterBits = sc.routerBits
	res.LinkBits = sc.linkBits
	np := s.G.NumPackets()
	res.ExecCycles = 0
	res.CoreBits = 0
	res.TSVBits = 0
	res.TotalContention = 0
	res.occ = nil
	clear(res.RouterBits)
	clear(res.LinkBits)
	for i := range sc.ports {
		sc.ports[i].reset()
	}
	for i := range sc.links {
		sc.links[i].reset()
	}
	for i := range sc.coreOut {
		sc.coreOut[i].reset()
		sc.coreIn[i].reset()
	}
	if record {
		for i := range sc.routerSpans {
			sc.routerSpans[i].reset()
		}
	}
	copy(sc.indeg, s.baseIndeg)
	clear(sc.ready)
	sc.heap.a = append(sc.heap.a[:0], s.initHeap...)

	n := s.numTiles
	tr, tl := s.Cfg.RoutingCycles, s.Cfg.LinkCycles
	tlv := s.Cfg.TSVCycles() // per-flit vertical (TSV) hop time; unused on depth-1 grids
	arbLocal := s.Cfg.ArbitrateLocal
	// Bookings nothing reads are skipped: with ArbitrateLocal off no
	// packet waits for a core link or a local output port (keepLocal),
	// and under the no-stall condition none waits for an inter-tile link
	// (see NewSimulatorFaults). Recorded runs keep everything.
	keepLocal := arbLocal || record
	bookLink := !s.linkFree || record
	bookTSV := !s.tsvFree || record
	scheduled := 0
	for sc.heap.len() > 0 {
		k := sc.heap.pop()
		p := int(k.id)
		pc := &s.pkts[p]
		srcTile, dstTile := mp[pc.src], mp[pc.dst]
		ri := int(srcTile)*n + int(dstTile)
		route := s.routes[s.routeOff[ri]:s.routeOff[ri+1]]
		bits := pc.bits
		var coreOut, coreIn *busyList
		if keepLocal {
			coreOut, coreIn = &sc.coreOut[srcTile], &sc.coreIn[dstTile]
		}

		// Walk the route head-first, booking each hop as the header
		// reaches it.
		var contention int64
		h := k.start // header enters the source core's output link

		// Source core -> local router link. Core links are timed but not
		// arbitrated under the paper's CRG semantics (ArbitrateLocal
		// false); see noc.Config.ArbitrateLocal.
		t := book(coreOut, h, pc.linkHold, arbLocal, k.id)
		contention += t - h
		h = t + tl

		// Routers (output-port arbitration) and the links they feed.
		var delivered int64
		for _, hp := range route {
			arrival := h
			tile := int(hp.port) / NumPorts
			// A port feeding a vertical link streams its flits at the TSV
			// rate, so its hold time follows the link's. The local output
			// port is timed but not arbitrated (paper-faithful: Figure
			// 3(b) shows overlapping deliveries).
			local := hp.link == localHop
			vert := hp.link < 0 && !local
			pHold := pc.portHold
			if vert {
				pHold = pc.vPortHold
			}
			port := &sc.ports[hp.port]
			if local && !keepLocal {
				port = nil
			}
			t = book(port, h, pHold, !local || arbLocal, k.id)
			contention += t - h
			portEnd := t + pHold
			h = t + tr
			res.RouterBits[tile] += bits
			if record {
				// Display span: from arrival (incl. buffer wait) to the
				// last flit leaving the router — the paper's annotation.
				sc.routerSpans[tile].iv = append(sc.routerSpans[tile].iv,
					Occupancy{Packet: k.id, Start: arrival, End: portEnd})
			}
			switch {
			case local:
				// Local router -> destination core link; delivery is when
				// the last flit crosses it.
				t = book(coreIn, h, pc.linkHold, arbLocal, k.id)
				contention += t - h
				delivered = t + pc.linkHold
			case vert:
				li := ^hp.link
				if bookTSV {
					t = sc.links[li].acquire(h, pc.vLinkHold, k.id)
					contention += t - h
					h = t
				}
				h += tlv
				res.LinkBits[li] += bits
				res.TSVBits += bits
			default:
				if bookLink {
					t = sc.links[hp.link].acquire(h, pc.linkHold, k.id)
					contention += t - h
					h = t
				}
				h += tl
				res.LinkBits[hp.link] += bits
			}
		}
		res.CoreBits += 2 * bits

		res.Packets[p] = PacketSchedule{
			ID:         k.id,
			Ready:      k.start - pc.compute,
			Start:      k.start,
			Delivered:  delivered,
			Contention: contention,
			K:          len(route),
			Flits:      pc.flits,
		}
		res.TotalContention += contention
		if delivered > res.ExecCycles {
			res.ExecCycles = delivered
		}
		scheduled++

		for _, succ := range s.dg.Succ(p) {
			if delivered > sc.ready[succ] {
				sc.ready[succ] = delivered
			}
			sc.indeg[succ]--
			if sc.indeg[succ] == 0 {
				sc.heap.push(pktKey{
					start: sc.ready[succ] + s.pkts[succ].compute,
					id:    model.PacketID(succ),
				})
			}
		}
	}
	if scheduled != np {
		return errors.New("wormhole: dependence deadlock (cyclic CDCG)")
	}

	if record {
		for i := range sc.routerSpans {
			sortOcc(sc.routerSpans[i].iv)
		}
		//nocvet:ignore trace recording is the diagnostic path (a recording scratch), never the annealer steady state
		res.occ = &occStore{
			routerSpans: snapshotAll(sc.routerSpans),
			ports:       snapshotAll(sc.ports),
			links:       snapshotAll(sc.links),
			coreOut:     snapshotAll(sc.coreOut),
			coreIn:      snapshotAll(sc.coreIn),
		}
	}
	return nil
}

// sortOcc sorts occupancies by (Start, Packet) via insertion sort; display
// lists are short.
//
//nocvet:noalloc
func sortOcc(a []Occupancy) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0; j-- {
			if a[j].Start < a[j-1].Start ||
				(a[j].Start == a[j-1].Start && a[j].Packet < a[j-1].Packet) {
				a[j], a[j-1] = a[j-1], a[j]
			} else {
				break
			}
		}
	}
}

func snapshotAll(ls []busyList) []busyList {
	out := make([]busyList, len(ls))
	for i := range ls {
		out[i] = busyList{iv: ls[i].snapshot()}
	}
	return out
}

// pktKey orders packets by transmission start time, tie-broken by ID so
// runs are fully deterministic.
type pktKey struct {
	start int64
	id    model.PacketID
}

//nocvet:noalloc
func (a pktKey) less(b pktKey) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	return a.id < b.id
}

// pktHeap is a binary min-heap of pktKey.
type pktHeap struct{ a []pktKey }

//nocvet:noalloc
func (h *pktHeap) reset() { h.a = h.a[:0] }

//nocvet:noalloc
func (h *pktHeap) len() int { return len(h.a) }

//nocvet:noalloc
func (h *pktHeap) push(k pktKey) {
	h.a = append(h.a, k)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.a[i].less(h.a[p]) {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

// pop removes and returns the minimum. The last element is sifted down
// from the root as a hole — children move up into it and the element is
// written once at its final slot — instead of being swapped level by
// level. Keys are distinct (IDs are unique), so the order of pops is the
// same as with any other correct sift.
//
//nocvet:noalloc
func (h *pktHeap) pop() pktKey {
	a := h.a
	top := a[0]
	last := len(a) - 1
	x := a[last]
	a = a[:last]
	h.a = a
	if last == 0 {
		return top
	}
	i := 0
	for {
		m := 2*i + 1
		if m >= last {
			break
		}
		if r := m + 1; r < last && a[r].less(a[m]) {
			m = r
		}
		if !a[m].less(x) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = x
	return top
}
