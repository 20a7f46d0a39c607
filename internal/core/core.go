// Package core implements the paper's primary contribution: the FRW
// mapping-exploration framework with its two application models —
//
//   - CWM, the communication weighted model of the prior art (Hu/
//     Marculescu, Murali/De Micheli): prices a mapping by dynamic energy
//     alone (equation (3)), blind to timing;
//   - CDCM, the communication dependence and computation model introduced
//     by the paper: executes the application's CDCG on the mapped NoC with
//     the wormhole simulator, obtains the execution time texec including
//     contention, and prices the mapping by total energy
//     ENoC = EStNoC + EDyNoC (equation (10)).
//
// Both models plug into the search engines of package search, and
// CompareModels runs the paper's Table-2 protocol: explore under each
// model, then price both winners with the CDCM simulator to report the
// execution-time reduction (ETR) and energy-consumption savings (ECS).
package core

import (
	"errors"
	"fmt"

	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// CWM is the communication weighted model evaluator. Its objective is
// EDyNoC of equation (3): each communication contributes
// w_ab × (K·ERbit + (K−1)·ELbit + 2·ECbit) where K is the router count of
// the XY route between the mapped tiles. CWM carries no timing
// information, so it cannot price static energy — the paper's central
// criticism.
type CWM struct {
	Mesh *topology.Mesh
	Cfg  noc.Config
	Tech energy.Tech
	G    *model.CWG

	// Evals, when non-nil, is incremented once per pricing — full Cost
	// calls and incremental SwapDelta probes alike. It is telemetry
	// only (an atomic add on the hot path, no allocation) and never
	// feeds back into a cost.
	Evals *obs.Counter

	// hops holds the minimal-route lengths of every (srcTile, dstTile)
	// pair, row-major with stride numTiles, filled once in NewCWM from
	// closed forms: K = Mesh.MinHops+1 routers and V = Mesh.VerticalHops
	// vertical (TSV) links. Every RoutingAlgo is minimal and dimension-
	// ordered, so these equal the lengths of the routes Mesh.AppendRoute
	// walks (TestCWMHopTablesMatchRoutes pins it); V is zero on depth-1
	// grids, so the 2-D aggregates carry a zero vertical term.
	hops     []routeLen
	numTiles int // cached Mesh.NumTiles(), the hops stride

	// totalBits is Σw over all CWG edges. It links the two traffic
	// aggregates — Σ w·(K−1) = Σ w·K − Σw for every mapping — so Cost and
	// the incremental path only fold router-bits and derive link-bits.
	totalBits int64
	// coreBits is the mapping-independent core↔router traffic aggregate:
	// every communication crosses exactly two core↔router links, so the
	// ECbit term of equation (1) contributes 2·Σw regardless of placement.
	coreBits int64

	// adj is the per-core adjacency in structure-of-arrays form: for each
	// core, the other endpoint, bit volume and G.Edges index of every
	// incident edge. Built once in NewCWM, it powers the O(deg)
	// incremental evaluation of cwm_delta.go: a swap of two tiles can only
	// change the contributions of edges incident to the affected cores.
	adj []coreAdj

	// Incremental-evaluation state bound by Reset (see cwm_delta.go): the
	// baseline mapping, its occupancy view, the route lengths of each CWG
	// edge under that baseline, and the integer traffic aggregates
	// routerBits = Σ w·K (link-bits derive as routerBits − totalBits) and
	// tsvBits = Σ w·V. Keeping the aggregates in exact integer arithmetic
	// is what makes incremental evaluation bit-identical to a full
	// recompute — swap deltas are integer updates, so equal-cost mappings
	// tie exactly on both paths.
	bound      mapping.Mapping
	boundOcc   []model.CoreID
	edgeLen    []routeLen
	routerBits int64
	tsvBits    int64
}

// routeLen is the length of one minimal route: k routers and v vertical
// (TSV) links.
type routeLen struct{ k, v int16 }

// NewCWM validates the inputs and builds the evaluator's tables: the
// per-core adjacency and the route-length table. An Instance builds its
// tables here once and hands out lanes sharing them (Instance.CWM).
func NewCWM(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech, g *model.CWG) (*CWM, error) {
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := wormhole.CheckNoC(mesh, cfg, g.NumCores()); err != nil {
		return nil, err
	}
	adj := make([]coreAdj, g.NumCores())
	for i, e := range g.Edges {
		adj[e.Src].edges = append(adj[e.Src].edges, adjEdge{nbr: int32(e.Dst), edge: int32(i), bits: e.Bits})
		adj[e.Dst].edges = append(adj[e.Dst].edges, adjEdge{nbr: int32(e.Src), edge: int32(i), bits: e.Bits})
	}
	n := mesh.NumTiles()
	hops := make([]routeLen, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			src, dst := topology.TileID(a), topology.TileID(b)
			hops[a*n+b] = routeLen{k: int16(mesh.MinHops(src, dst) + 1), v: int16(mesh.VerticalHops(src, dst))}
		}
	}
	return &CWM{Mesh: mesh, Cfg: cfg, Tech: tech, G: g,
		hops:      hops,
		numTiles:  n,
		totalBits: g.TotalBits(),
		coreBits:  2 * g.TotalBits(),
		adj:       adj}, nil
}

// Cost implements search.Objective: EDyNoC in joules. The per-edge sum
// Σ w_ab·EBit(K) is folded as exact integer traffic aggregates — Σ w·K
// router-bits, Σ w·(K−1) link-bits and, on 3-D grids, Σ w·V vertical
// (TSV) bits — and priced with one call to Tech.DynamicFromTraffic3D,
// the same formula the CDCM simulator path uses
// (equations (3)/(4) agree on dynamic energy by construction). Integer
// folding means the value is independent of edge order, and incremental
// swap deltas (cwm_delta.go) reproduce it bit-for-bit.
//
// Per the Objective hot-path contract, Cost assumes mp is injective and
// performs only a length check: the search engines call it once per
// proposed move with mappings that are valid by construction, and a full
// injectivity scan here would dominate the hot loop. Callers pricing an
// externally supplied mapping must validate it first — Reset and Traffic
// are the validating entry points.
//
//nocvet:noalloc
func (c *CWM) Cost(mp mapping.Mapping) (float64, error) {
	rb, vb, err := c.fold(mp)
	if err != nil {
		return 0, err
	}
	if c.Evals != nil {
		c.Evals.Inc()
	}
	return c.Tech.DynamicFromTraffic3D(rb, rb-c.totalBits, vb, c.coreBits), nil
}

// fold returns mp's traffic aggregates Σ w·K and Σ w·V (see Cost) under
// Cost's hot-path contract: the one pass behind Cost, ComponentsInto and
// the tier-B surrogate.
//
//nocvet:noalloc
func (c *CWM) fold(mp mapping.Mapping) (rb, vb int64, err error) {
	if len(mp) != c.G.NumCores() {
		return 0, 0, fmt.Errorf("core: mapping covers %d cores, CWG has %d", len(mp), c.G.NumCores())
	}
	for _, e := range c.G.Edges {
		h := c.hops[int(mp[e.Src])*c.numTiles+int(mp[e.Dst])]
		rb += e.Bits * int64(h.k)
		vb += e.Bits * int64(h.v)
	}
	return rb, vb, nil
}

// hopLatency is the uncontended hop-latency aggregate of the traffic
// aggregates rb and vb (see fold), in bit·cycles: every bit pays tr per
// router traversed, tl per planar inter-tile link and the TSV per-flit
// time per vertical link,
//
//	Σ w·K·tr + (Σ w·(K−1) − Σ w·V)·tl + Σ w·V·tTSV.
//
//nocvet:noalloc
func (c *CWM) hopLatency(rb, vb int64) float64 {
	return float64(rb)*float64(c.Cfg.RoutingCycles) +
		float64(rb-c.totalBits-vb)*float64(c.Cfg.LinkCycles) +
		float64(vb)*float64(c.Cfg.TSVCycles())
}

// Traffic returns the per-resource bit aggregates of a mapping — the cost
// variables the CWM algorithm stores on CRG vertices and edges (Figure 2):
// routerBits[t] feeds ERbit, linkBits[l] feeds ELbit, coreBits feeds the
// optional ECbit term.
func (c *CWM) Traffic(mp mapping.Mapping) (routerBits, linkBits []int64, coreBits int64, err error) {
	if err := mp.Validate(c.Mesh.NumTiles()); err != nil {
		return nil, nil, 0, err
	}
	if len(mp) != c.G.NumCores() {
		return nil, nil, 0, fmt.Errorf("core: mapping covers %d cores, CWG has %d", len(mp), c.G.NumCores())
	}
	routerBits = make([]int64, c.Mesh.NumTiles())
	linkBits = make([]int64, c.Mesh.NumLinks())
	for _, e := range c.G.Edges {
		r, err := c.Mesh.Route(c.Cfg.Routing, mp[e.Src], mp[e.Dst])
		if err != nil {
			return nil, nil, 0, err
		}
		for i, t := range r.Tiles {
			routerBits[t] += e.Bits
			if i+1 < len(r.Tiles) {
				li, ok := c.Mesh.LinkIndex(t, r.Tiles[i+1])
				if !ok {
					return nil, nil, 0, errors.New("core: route step is not a link")
				}
				linkBits[li] += e.Bits
			}
		}
		coreBits += 2 * e.Bits
	}
	return routerBits, linkBits, coreBits, nil
}

// Metrics is the full CDCM pricing of one mapping.
type Metrics struct {
	// ExecCycles is texec in clock cycles.
	ExecCycles int64
	// ExecNS is texec in nanoseconds (cycles × λ).
	ExecNS float64
	// Energy is the dynamic/static breakdown under the pricing tech.
	Energy energy.Breakdown
	// ContentionCycles is the total packet stall time.
	ContentionCycles int64
	// TSVBits is the bit volume that crossed vertical (TSV) links — zero
	// on depth-1 grids. It reports how much of the dynamic energy the
	// ETSVbit coefficient priced.
	TSVBits int64
}

// Total returns ENoC in joules.
//
//nocvet:noalloc
func (m Metrics) Total() float64 { return m.Energy.Total() }

// CDCM is the communication dependence and computation model evaluator:
// it executes the CDCG on the mapped NoC (wormhole simulator) and prices
// the result with equation (10).
//
// The simulator (route tables, dependence graph) is immutable and
// shared; the mutable per-run state lives in a private wormhole.Scratch.
// A CDCM is therefore a cheap lane: Instance.CDCM and Clone hand out
// lanes over one simulator, which is how the parallel search engines
// price concurrently without rebuilding or locking anything. One lane
// is not safe for concurrent use.
type CDCM struct {
	Tech energy.Tech

	// Evals, when non-nil, is incremented once per completed simulation
	// (Evaluate, Cost, and PriceBelow when it does not skip); a run the
	// simulator rejects counts nothing.
	// Telemetry only; shared by clones so parallel lanes fold into one
	// total.
	Evals *obs.Counter

	sim *wormhole.Simulator
	sc  *wormhole.Scratch
}

// NewCDCM validates the inputs and builds the evaluator over the intact
// NoC: NewCDCMFaults with no fault set.
func NewCDCM(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech, g *model.CDCG) (*CDCM, error) {
	return NewCDCMFaults(mesh, cfg, tech, g, nil)
}

// Clone returns an independent evaluator lane sharing this evaluator's
// immutable simulator core: construction cost is one scratch allocation,
// no re-validation and no route recomputation. Clones may run
// concurrently with each other and with the original.
func (c *CDCM) Clone() *CDCM {
	return &CDCM{Tech: c.Tech, Evals: c.Evals, sim: c.sim, sc: newScratch(c.sim)}
}

// Evaluate runs the simulation and prices it under the evaluator's tech.
// The run takes the scratch path (allocation-free in steady state);
// Metrics copies everything out, so nothing retains the scratch.
func (c *CDCM) Evaluate(mp mapping.Mapping) (Metrics, error) {
	res, err := c.run(mp)
	if err != nil {
		return Metrics{}, err
	}
	return c.metrics(res), nil
}

// run simulates mp on the lane's scratch and counts the simulation in
// Evals once it has completed.
//
//nocvet:noalloc
func (c *CDCM) run(mp mapping.Mapping) (*wormhole.Result, error) {
	res, err := c.sim.RunScratch(mp, c.sc)
	if err != nil {
		return nil, err
	}
	if c.Evals != nil {
		c.Evals.Inc()
	}
	return res, nil
}

// metrics converts a simulation result into Metrics.
//
//nocvet:noalloc
func (c *CDCM) metrics(res *wormhole.Result) Metrics {
	return Metrics{
		ExecCycles:       res.ExecCycles,
		ExecNS:           c.sim.Cfg.CyclesToNS(res.ExecCycles),
		Energy:           c.price(res.Traffic, res.ExecCycles),
		ContentionCycles: res.TotalContention,
		TSVBits:          res.Traffic.TSVBits,
	}
}

// price is equation (10) for a mapping whose routes carry traffic t and
// whose run takes texec cycles: EDyNoC, exact from the traffic totals,
// and EStNoC(texec), monotone in texec. Every CDCM energy goes through
// it, so a certified lower bound on texec prices at most the exact cost
// on the computed float64s, and the exact texec prices that cost bit
// for bit.
//
//nocvet:noalloc
func (c *CDCM) price(t wormhole.Traffic, texec int64) energy.Breakdown {
	return energy.Breakdown{
		Dynamic: c.Tech.DynamicFromTraffic3D(t.RouterBits, t.LinkBits, t.TSVBits, t.CoreBits),
		// The conversion keeps the product from fusing into Total's sum.
		Static: float64(c.Tech.StaticEnergy(c.sim.Mesh.NumTiles(), c.sim.Cfg.CyclesToSeconds(texec))),
	}
}

// Cost implements search.Objective: ENoC of equation (10), in joules.
// It runs on the evaluator's scratch, so the search engines pay no heap
// allocation per candidate once the scratch is warm.
//
//nocvet:noalloc
func (c *CDCM) Cost(mp mapping.Mapping) (float64, error) {
	res, err := c.run(mp)
	if err != nil {
		return 0, err
	}
	return c.price(res.Traffic, res.ExecCycles).Total(), nil
}

// PriceBelow implements search.CutoffObjective: ENoC of mp like Cost,
// unless reject accepts a certified lower bound first. Every bound comes
// before the first packet: tier A, the simulator's uncontended critical
// path (wormhole.Simulator.Bound), and, on graphs of 40 cores or more
// (see wormhole.Simulator.PortLoadBound), each time the bounds before
// are declined and it is larger than all of them, the port-load bound
// (wormhole.Simulator.PortLoad) and then the heads-and-tails bound
// (wormhole.Simulator.HeadTail). A stop at any of them skips the
// simulation and counts nothing in Evals; the engines count it as a
// bound skip. Otherwise it returns Cost(mp): the unskipped leg is the
// same run and the same price.
//
//nocvet:noalloc
func (c *CDCM) PriceBelow(mp mapping.Mapping, reject func(lb float64) bool) (cost float64, skipped bool, err error) {
	cp, t, err := c.sim.Bound(mp, c.sc)
	if err != nil {
		return 0, false, err
	}
	//nocvet:ignore reject is the engine's allocation-free certified-rejection test
	if reject(c.price(t, cp).Total()) {
		return 0, true, nil
	}
	if c.sim.PortLoadBound {
		load, err := c.sim.PortLoad(mp, c.sc)
		if err != nil {
			return 0, false, err
		}
		//nocvet:ignore reject is the engine's allocation-free certified-rejection test
		if load > cp && reject(c.price(t, load).Total()) {
			return 0, true, nil
		}
		ht, err := c.sim.HeadTail(mp, c.sc)
		if err != nil {
			return 0, false, err
		}
		//nocvet:ignore reject is the engine's allocation-free certified-rejection test
		if ht > max(cp, load) && reject(c.price(t, ht).Total()) {
			return 0, true, nil
		}
	}
	cost, err = c.Cost(mp)
	return cost, false, err
}

var _ search.CutoffObjective = (*CDCM)(nil)

// Simulate runs the CDCG on a mapping and returns the raw wormhole result
// (timeline and occupancies) together with the priced metrics. It runs
// on a fresh recording scratch, so the Result is independent of the
// evaluator and safe to keep across later evaluations (the trace/Gantt
// renderers rely on that), and clones may Simulate concurrently like
// they Cost concurrently.
func (c *CDCM) Simulate(mp mapping.Mapping) (*wormhole.Result, Metrics, error) {
	sc := newScratch(c.sim)
	sc.RecordOccupancy = true
	res, err := c.sim.RunScratch(mp, sc)
	if err != nil {
		return nil, Metrics{}, err
	}
	return res, c.metrics(res), nil
}
