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
// start time, or nil if the run did not record them (RecordOccupancy was
// false) or the resource index is out of range. For KindRouter the
// intervals include input-buffer waiting and may overlap; all other kinds
// are exclusive and never overlap.
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
// (NewScratch + RunScratch): that is how the parallel search engines
// evaluate the CDCM objective concurrently without re-parsing or
// locking.
//
// Run is the one-goroutine convenience path: it lazily keeps a private
// internal scratch, so a Simulator used via Run is NOT safe for
// concurrent use.
type Simulator struct {
	Mesh *topology.Mesh
	Cfg  noc.Config
	G    *model.CDCG

	// RecordOccupancy keeps the per-resource busy lists on Results
	// returned by Run, for rendering (Figure 3/4/5 style output). Leave
	// false in search loops — recording snapshots every resource's full
	// occupancy history, which only the trace/Gantt consumers need.
	// RunScratch ignores it; set Scratch.RecordOccupancy instead.
	RecordOccupancy bool
	// PortLoadBound makes RunBelow offer the port-load bound once the
	// critical path is declined (see RunBelow). NewSimulatorFaults sets
	// it when a swap moves at most a tenth of the packets on average,
	// that is on graphs of 40 cores or more: on smaller ones the update
	// costs more than the simulations the bound saves. It changes only
	// which runs may be skipped, never a Result, so the tests set it to
	// check the bound on small graphs.
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
	// tile table. Construction walks one route per tile pair into a
	// reused buffer — noise against any search, noticeable only when a
	// Simulator is built to price a single mapping.
	routeOff []int32
	routes   []hop
	// faults is the fault set the route table was built against (nil for
	// an intact simulator — the NewSimulator path, which is bit-identical
	// to the pre-fault behaviour). unreach[src*n+dst] marks tile pairs the
	// fault set partitions; it is nil when every pair is reachable, so the
	// intact hot loop pays a single nil check.
	faults  *topology.FaultSet
	unreach []bool

	// linkFree and tsvFree mark the configurations in which no packet
	// can wait for a planar or a vertical inter-tile link (see
	// NewSimulatorFaults): their bookings are then skipped unless a run
	// records occupancies.
	linkFree, tsvFree bool
	// topo is a topological order of the packets; criticalPath walks it
	// backwards to price each packet's uncontended remaining path.
	topo []int32
	// The port-load bound's index (see NewSimulatorFaults): the packets
	// core c sends or receives are coreRefs[coreOff[c]:coreOff[c+1]], so
	// a swap re-adds only theirs.
	coreOff  []int32
	coreRefs []coreRef

	scratch  *Scratch // lazily built by Run; nil until then
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
// the event heap, dependence counters and the reusable Result backing
// arrays. Results returned by RunScratch point into the scratch and are
// valid only until its next RunScratch — callers that keep a Result
// across runs must copy what they need (or use Run, which returns an
// independent Result).
//
// A Scratch belongs to the Simulator that created it and is not safe for
// concurrent use; concurrency comes from running many scratches, one per
// goroutine, against the same shared Simulator.
type Scratch struct {
	// RecordOccupancy keeps the per-resource busy lists on Results
	// produced through this scratch (see Simulator.RecordOccupancy).
	// Leave false on search lanes: the snapshot allocates.
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
	hops        []hopPlan
	seen        []model.CoreID // mapping-validation buffer, reused per run
	// load[port] is the port-load bound's sum for loadMap, the last
	// mapping RunBelow computed it for (loaded false until then).
	load    []int64
	loadMap mapping.Mapping
	loaded  bool

	res        Result
	packets    []PacketSchedule
	routerBits []int64
	linkBits   []int64
}

// hopPlan is one resource traversal of the packet currently being routed:
// computed during the plan pass, booked during the commit pass.
type hopPlan struct {
	list   *busyList
	t      int64 // acquisition time
	stall  int64 // t - arrival (only >0 on arbitrated resources)
	hold   int64 // busy through [t, t+hold]
	rate   int64 // per-flit cycles of the hop (tl, or tlv on a TSV link)
	isPort bool  // router output port (where input buffering happens)
}

// plan computes the acquisition time of one hop. With unbounded buffers
// (the default) the hop is booked immediately — occupancies never change
// after the fact, so the extra plan/commit pass would be wasted work on
// the annealer's hot path. With bounded buffers the hop is appended to
// the plan and booked by the commit pass after backpressure extensions.
// Unarbitrated resources acquire at arrival regardless of existing
// bookings. A nil list marks a write-only hop this run does not keep:
// it is timed (and, with bounded buffers, planned, since backpressure
// reads its rate) but never booked.
//
//nocvet:noalloc
func (s *Simulator) plan(sc *Scratch, list *busyList, arrival, hold, rate int64, arbitrated, isPort bool, pkt model.PacketID) int64 {
	if s.Cfg.Buffers != noc.BuffersBounded {
		switch {
		case list == nil:
		case arbitrated:
			return list.acquire(arrival, hold, pkt)
		default:
			list.record(arrival, hold, pkt)
		}
		return arrival
	}
	t := arrival
	if arbitrated {
		t = list.earliestFree(arrival, hold)
	}
	sc.hops = append(sc.hops, hopPlan{list: list, t: t, stall: t - arrival, hold: hold, rate: rate, isPort: isPort})
	return t
}

// applyBackpressure models bounded router input buffers: when a packet
// waits S cycles at an output port, up to BufferFlits of its flits are
// absorbed by the input buffer; any excess occupies the hop immediately
// upstream (the feeding link — and transitively the port feeding that
// link) for the overflow duration. This is a one-packet-deep analytic
// approximation of wormhole backpressure: extended occupancies delay
// later packets via earliest-fit, but intervals already booked by earlier
// packets are not re-planned (an exact treatment needs flit-level
// simulation; see DESIGN.md). With unbounded buffers it is a no-op.
//
//nocvet:noalloc
func (s *Simulator) applyBackpressure(sc *Scratch, tl int64) {
	if s.Cfg.Buffers != noc.BuffersBounded {
		return
	}
	for i := range sc.hops {
		hp := &sc.hops[i]
		if !hp.isPort {
			continue
		}
		// The buffer fills at the rate flits arrive over the feeding hop
		// (the upstream link, or tl off the source core), so a buffer
		// downstream of a slow TSV link absorbs proportionally more stall.
		feedRate := tl
		if i > 0 && !sc.hops[i-1].isPort {
			feedRate = sc.hops[i-1].rate
		}
		capCycles := s.Cfg.BufferFlits * feedRate
		if hp.stall <= capCycles {
			continue
		}
		overflow := hp.stall - capCycles
		// Extend the feeding link (hop i-1) and, if present, the port
		// driving that link (hop i-2).
		for back := 1; back <= 2 && i-back >= 0; back++ {
			sc.hops[i-back].hold += overflow
		}
	}
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
	if mesh == nil {
		return nil, errors.New("wormhole: nil mesh")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.NumCores() > mesh.NumTiles() {
		return nil, fmt.Errorf("wormhole: %d cores exceed %d tiles", g.NumCores(), mesh.NumTiles())
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
	// can be skipped without changing any timing. Three cases keep the
	// bookings: bounded buffers (backpressure extends link holds past
	// the port's), recorded runs (the occupancies are the output), and a
	// link slower than tr.
	unbounded := cfg.Buffers != noc.BuffersBounded
	s.linkFree = unbounded && tr >= tl
	s.tsvFree = unbounded && tr >= tlv

	// The port-load bound. An arbitrated output port (every inter-tile
	// port, and the local port under ArbitrateLocal) grants packet p an
	// interval [t_p, t_p+h_p] that overlaps no other grant's, h_p being
	// its unextended hold (portHold, or vPortHold feeding a TSV):
	// acquire and earliestFree test exactly that interval against every
	// booking, and backpressure only lengthens bookings afterwards. On
	// integer cycles, grants sorted t_1 < … < t_m therefore satisfy
	// t_{i+1} ≥ t_i + h_i + 1, and with t_1 ≥ 0 the last one has
	// t_m ≥ Σ_{i<m} (h_i+1). From its grant a packet needs at least d_p
	// more cycles to be delivered — tr plus the link time r per router
	// up to the destination, then tr + n·tl into the core — since no hop
	// can be taken before the previous one frees it. So texec ≥ t_m + d_m
	// ≥ Σ_p c_p with c_p = min(h_p+1, d_p), whichever packet is last.
	// With tl ≥ 1, d_p ≥ h_p+1 on planar ports (d ≥ 2tr + (n+1)·tl) and
	// on the local port (d = tr + n·tl), so c_p is h_p+1 there; only a
	// TSV port slower than the path after it needs the min. portLoad
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
	if fs.Empty() {
		var buf []topology.TileID
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				buf, err = mesh.AppendRoute(buf[:0], cfg.Routing, topology.TileID(a), topology.TileID(b))
				if err != nil {
					return nil, err
				}
				if err := appendHops(buf); err != nil {
					return nil, err
				}
				s.routeOff[a*n+b+1] = int32(len(s.routes))
			}
		}
	} else {
		if fs.Mesh() != mesh {
			return nil, errors.New("wormhole: fault set belongs to a different mesh")
		}
		s.faults = fs
		s.unreach = make([]bool, n*n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				r, err := mesh.RouteFault(cfg.Routing, fs, topology.TileID(a), topology.TileID(b))
				switch {
				case errors.Is(err, topology.ErrUnreachable):
					s.unreach[a*n+b] = true
				case err != nil:
					return nil, err
				default:
					if err := appendHops(r.Tiles); err != nil {
						return nil, err
					}
				}
				s.routeOff[a*n+b+1] = int32(len(s.routes))
			}
		}
	}
	s.initOnce = true
	return s, nil
}

// Faults returns the fault set the simulator's route table was built
// against, nil for an intact simulator.
func (s *Simulator) Faults() *topology.FaultSet { return s.faults }

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

// Run simulates the CDCG under the given mapping and returns the
// schedule as an independent Result (safe to keep across runs). It uses
// a lazily-created internal scratch, so Run is not safe for concurrent
// use — parallel callers use NewScratch with RunScratch or RunFresh.
func (s *Simulator) Run(mp mapping.Mapping) (*Result, error) {
	if !s.initOnce {
		return nil, errors.New("wormhole: use NewSimulator")
	}
	if s.scratch == nil {
		s.scratch = s.NewScratch()
	}
	return s.RunFresh(mp, s.scratch)
}

// RunFresh simulates with the caller's scratch like RunScratch but
// returns an independent Result with fresh backing arrays, safe to keep
// across later runs. It is the concurrency-safe form of Run: lanes that
// occasionally need a durable Result (rendering snapshots, winner
// reports) call it on their own scratch without touching the shared
// internal one. Occupancies are recorded when either the scratch's or
// the simulator's RecordOccupancy flag is set; flip those before
// spinning up concurrent lanes.
func (s *Simulator) RunFresh(mp mapping.Mapping, sc *Scratch) (*Result, error) {
	if !s.initOnce {
		return nil, errors.New("wormhole: use NewSimulator")
	}
	if sc == nil || sc.sim != s {
		return nil, errors.New("wormhole: scratch is not from this simulator's NewScratch")
	}
	res := &Result{
		Packets:    make([]PacketSchedule, s.G.NumPackets()),
		RouterBits: make([]int64, s.numTiles),
		LinkBits:   make([]int64, s.Mesh.NumLinks()),
	}
	if _, err := s.run(sc, res, mp, sc.RecordOccupancy || s.RecordOccupancy, nil); err != nil {
		return nil, err
	}
	return res, nil
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
	return s.RunBelow(mp, sc, nil)
}

// Traffic is the bit volume one mapping's routes carry, summed over every
// packet: Σ bits·K router bits, Σ bits·(K−1) link bits, the vertical
// (TSV) share of the latter and 2·Σ bits core-link bits. They are the
// same integers as a full run's RouterBits and LinkBits totals, TSVBits
// and CoreBits, known before the first packet is scheduled.
type Traffic struct {
	RouterBits, LinkBits, TSVBits, CoreBits int64
}

// Cutoff decides whether RunBelow may skip a simulation.
type Cutoff interface {
	// Stop reports whether the run may be skipped, given the mapping's
	// traffic totals and a certified lower bound on its texec. RunBelow
	// calls it, before the first packet, with the critical path, then,
	// when it is larger and PortLoadBound is set, with the port-load
	// bound.
	Stop(t Traffic, texecBound int64) bool
}

// RunBelow is RunScratch with a cut-off: before the first packet it
// offers stop certified lower bounds B ≤ texec, and it either skips the
// simulation, as soon as stop accepts one, or simulates mp to
// completion on the caller's scratch. The bounds, in increasing order:
//
//   - The uncontended critical path: the longest dependence chain of
//     compute times plus contention-free packet durations K·(tr+tl) +
//     V·(tTSV−tl) + n·tl under mp. It costs O(packets + dependences).
//   - If stop declines that and PortLoadBound is set, the port-load
//     bound, when it is larger: the largest per-port sum of
//     min(hold+1, remaining path) over the packets that cross an
//     arbitrated output port (see NewSimulatorFaults). The scratch keeps
//     the per-port sums of the last mapping it bounded, so a swap re-adds
//     only the packets of the cores that moved.
//
// It returns the Result (valid until the scratch's next run, like
// RunScratch's) when the simulation ran, or a nil Result when stop
// skipped it. A nil stop runs to completion: that is RunScratch.
//
//nocvet:noalloc
func (s *Simulator) RunBelow(mp mapping.Mapping, sc *Scratch, stop Cutoff) (*Result, error) {
	if !s.initOnce {
		return nil, errors.New("wormhole: use NewSimulator")
	}
	if sc == nil || sc.sim != s {
		return nil, errors.New("wormhole: scratch is not from this simulator's NewScratch")
	}
	res := &sc.res
	res.Packets = sc.packets
	res.RouterBits = sc.routerBits
	res.LinkBits = sc.linkBits
	skipped, err := s.run(sc, res, mp, sc.RecordOccupancy, stop)
	if err != nil || skipped {
		return nil, err
	}
	return res, nil
}

// criticalPath prices the first cut-off bound for mp: the traffic
// totals and the uncontended critical path. It walks the packets in
// reverse topological order, using sc.ready as the per-packet "own
// duration plus the longest path after it" scratch (run resets it
// afterwards).
//
//nocvet:noalloc
func (s *Simulator) criticalPath(sc *Scratch, mp mapping.Mapping) (lb int64, tot Traffic, err error) {
	n := s.numTiles
	tr, tl := s.Cfg.RoutingCycles, s.Cfg.LinkCycles
	vadj := s.Cfg.TSVCycles() - tl
	stacked := s.Mesh.D() > 1
	path := sc.ready
	for i := len(s.topo) - 1; i >= 0; i-- {
		p := int(s.topo[i])
		pc := &s.pkts[p]
		ri := int(mp[pc.src])*n + int(mp[pc.dst])
		if s.unreach != nil && s.unreach[ri] {
			return 0, tot, ErrUnreachable
		}
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
		tot.RouterBits += pc.bits * k
		tot.LinkBits += pc.bits * (k - 1)
		tot.TSVBits += pc.bits * v
		tot.CoreBits += 2 * pc.bits
		var rest int64
		for _, q := range s.dg.Succ(p) {
			rest = max(rest, path[q])
		}
		path[p] = pc.compute + k*(tr+tl) + v*vadj + pc.flits*tl + rest
		lb = max(lb, path[p])
	}
	return lb, tot, nil
}

// portLoad returns the port-load bound of mp: the largest per-port sum
// of c_p = min(h_p+1, d_p) over the packets crossing an arbitrated
// output port (see NewSimulatorFaults). It brings sc.load from
// sc.loadMap to mp by moving only the packets of the cores whose tiles
// differ, each once; the first call adds every packet. mp has passed
// criticalPath, so every route it uses is reachable.
//
//nocvet:noalloc
func (s *Simulator) portLoad(sc *Scratch, mp mapping.Mapping) int64 {
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
	return peak
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

// run is the simulation core shared by Run, RunScratch and RunBelow: all
// mutable state lives in sc, all shared state on s is read-only, and the
// schedule is written into res (whose slices the caller sized). It
// reports skipped when stop (nil for a plain run) accepted a bound
// before the first packet; res is then untouched.
//
//nocvet:noalloc
func (s *Simulator) run(sc *Scratch, res *Result, mp mapping.Mapping, record bool, stop Cutoff) (skipped bool, err error) {
	if len(mp) != s.G.NumCores() {
		return false, fmt.Errorf("wormhole: mapping covers %d cores, CDCG has %d", len(mp), s.G.NumCores())
	}
	if err := mp.ValidateInto(s.numTiles, sc.seen); err != nil {
		return false, err
	}
	if stop != nil {
		lb, tot, err := s.criticalPath(sc, mp)
		if err != nil {
			return false, err
		}
		//nocvet:ignore Cutoff implementations are the evaluators' allocation-free bound checks
		if stop.Stop(tot, lb) {
			return true, nil
		}
		if s.PortLoadBound {
			//nocvet:ignore Cutoff implementations are the evaluators' allocation-free bound checks
			if load := s.portLoad(sc, mp); load > lb && stop.Stop(tot, load) {
				return true, nil
			}
		}
	}

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
		if s.unreach != nil && s.unreach[ri] {
			// The mapping routes this packet across a faulted partition.
			// The sentinel is static so the noalloc hot path stays clean;
			// resilience scoring catches it and applies the documented
			// penalty instead of treating it as a failure.
			return false, ErrUnreachable
		}
		route := s.routes[s.routeOff[ri]:s.routeOff[ri+1]]
		bits := pc.bits
		var coreOut, coreIn *busyList
		if keepLocal {
			coreOut, coreIn = &sc.coreOut[srcTile], &sc.coreIn[dstTile]
		}

		// Plan pass: walk the route head-first, computing acquisition
		// times without booking anything (the hops of one packet touch
		// distinct resources, so peek-then-book is exact).
		sc.hops = sc.hops[:0]
		var contention int64
		h := k.start // header enters the source core's output link

		// Source core -> local router link. Core links are timed but not
		// arbitrated under the paper's CRG semantics (ArbitrateLocal
		// false); see noc.Config.ArbitrateLocal.
		t := s.plan(sc, coreOut, h, pc.linkHold, tl, arbLocal, false, k.id)
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
			pHold, pRate := pc.portHold, tl
			if vert {
				pHold, pRate = pc.vPortHold, tlv
			}
			port := &sc.ports[hp.port]
			if local && !keepLocal {
				port = nil
			}
			t = s.plan(sc, port, h, pHold, pRate, !local || arbLocal, true, k.id)
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
				t = s.plan(sc, coreIn, h, pc.linkHold, tl, arbLocal, false, k.id)
				contention += t - h
				delivered = t + pc.linkHold
			case vert:
				li := ^hp.link
				if bookTSV {
					t = s.plan(sc, &sc.links[li], h, pc.vLinkHold, tlv, true, false, k.id)
					contention += t - h
					h = t
				}
				h += tlv
				res.LinkBits[li] += bits
				res.TSVBits += bits
			default:
				if bookLink {
					t = s.plan(sc, &sc.links[hp.link], h, pc.linkHold, tl, true, false, k.id)
					contention += t - h
					h = t
				}
				h += tl
				res.LinkBits[hp.link] += bits
			}
		}
		s.applyBackpressure(sc, tl)
		// Commit pass: book every kept hop (including any backpressure
		// extensions) so later packets see the occupancy.
		for i := range sc.hops {
			if hp := &sc.hops[i]; hp.list != nil {
				hp.list.record(hp.t, hp.hold, k.id)
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
		return false, errors.New("wormhole: dependence deadlock (cyclic CDCG)")
	}

	if record {
		for i := range sc.routerSpans {
			sortOcc(sc.routerSpans[i].iv)
		}
		//nocvet:ignore trace recording is the diagnostic path (Run with record), never the annealer steady state
		res.occ = &occStore{
			routerSpans: snapshotAll(sc.routerSpans),
			ports:       snapshotAll(sc.ports),
			links:       snapshotAll(sc.links),
			coreOut:     snapshotAll(sc.coreOut),
			coreIn:      snapshotAll(sc.coreIn),
		}
	}
	return false, nil
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
