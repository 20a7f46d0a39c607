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

	kCache   []int16 // routers per (srcTile, dstTile) pair, lazily filled
	numTiles int     // cached Mesh.NumTiles(), the kCache stride
	// routeBuf is the reused route buffer of the kCache miss path, so a
	// lane filling its cache pair by pair allocates per longest route,
	// not per pair.
	routeBuf []topology.TileID

	// flat is true on depth-1 grids, which have no vertical links: every
	// vertical-traffic code path below is skipped, keeping the 2-D hot
	// loops (and their results) exactly as they were before the 3-D
	// extension. vCache mirrors kCache with the vertical (TSV) hop count
	// of each tile pair and is nil when flat; it is filled by the same
	// cache-miss path as kCache, so a non-zero kCache entry guarantees a
	// valid vCache entry.
	flat   bool
	vCache []int16

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
	// baseline mapping, its occupancy view, the router count of each CWG
	// edge's route under that baseline, and the integer traffic aggregate
	// routerBits = Σ w·K (link-bits derive as routerBits − totalBits).
	// Keeping the aggregate in exact integer arithmetic is what makes
	// incremental evaluation bit-identical to a full recompute — swap
	// deltas are integer updates, so equal-cost mappings tie exactly on
	// both paths. On 3-D grids edgeV/tsvBits track the vertical (TSV)
	// traffic aggregate Σ w·V the same way (V = vertical hops of the
	// edge's route); both are nil/zero when flat.
	bound      mapping.Mapping
	boundOcc   []model.CoreID
	edgeK      []int16
	edgeV      []int16
	routerBits int64
	tsvBits    int64
}

// NewCWM validates the inputs and builds the evaluator.
func NewCWM(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech, g *model.CWG) (*CWM, error) {
	if mesh == nil {
		return nil, errors.New("core: nil mesh")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.NumCores() > mesh.NumTiles() {
		return nil, fmt.Errorf("core: %d cores exceed %d tiles", g.NumCores(), mesh.NumTiles())
	}
	adj := make([]coreAdj, g.NumCores())
	for i, e := range g.Edges {
		adj[e.Src].edges = append(adj[e.Src].edges, adjEdge{nbr: int32(e.Dst), edge: int32(i), bits: e.Bits})
		adj[e.Dst].edges = append(adj[e.Dst].edges, adjEdge{nbr: int32(e.Src), edge: int32(i), bits: e.Bits})
	}
	c := &CWM{Mesh: mesh, Cfg: cfg, Tech: tech, G: g,
		kCache:    make([]int16, mesh.NumTiles()*mesh.NumTiles()),
		numTiles:  mesh.NumTiles(),
		flat:      mesh.D() == 1,
		totalBits: g.TotalBits(),
		coreBits:  2 * g.TotalBits(),
		adj:       adj}
	if !c.flat {
		c.vCache = make([]int16, mesh.NumTiles()*mesh.NumTiles())
	}
	return c, nil
}

// routers returns K for a tile pair, caching the route length.
//
//nocvet:noalloc
func (c *CWM) routers(src, dst topology.TileID) (int, error) {
	if k := c.kCache[int(src)*c.numTiles+int(dst)]; k > 0 {
		return int(k), nil
	}
	//nocvet:ignore cache-miss fallback: every pair is computed once, then served from kCache; amortized alloc-free
	return c.routersSlow(src, dst)
}

// routersSlow computes and caches K (and, on 3-D grids, the vertical hop
// count) on a cache miss; kept out of routers so the hot-path hit check
// inlines into the evaluation loops.
func (c *CWM) routersSlow(src, dst topology.TileID) (int, error) {
	var err error
	c.routeBuf, err = c.Mesh.AppendRoute(c.routeBuf[:0], c.Cfg.Routing, src, dst)
	if err != nil {
		return 0, err
	}
	k := len(c.routeBuf)
	idx := int(src)*c.numTiles + int(dst)
	c.kCache[idx] = int16(k)
	if !c.flat {
		c.vCache[idx] = int16(c.Mesh.VerticalHops(src, dst))
	}
	return k, nil
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
		k, err := c.routers(mp[e.Src], mp[e.Dst])
		if err != nil {
			return 0, 0, err
		}
		rb += e.Bits * int64(k)
		if !c.flat {
			// routers filled the pair's cache line, so the vertical hop
			// count is valid here.
			vb += e.Bits * int64(c.vCache[int(mp[e.Src])*c.numTiles+int(mp[e.Dst])])
		}
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
// The simulator core (route tables, port tables, dependence graph) is
// immutable and shared; the mutable per-run state lives in a private
// wormhole.Scratch. One CDCM is therefore cheap to Clone: clones share
// the simulator and get their own scratch, which is how the parallel
// search engines evaluate the CDCM objective concurrently without
// rebuilding or locking anything. A single CDCM instance is still not
// safe for concurrent use — give each goroutine its own clone.
type CDCM struct {
	Tech energy.Tech

	// Evals, when non-nil, is incremented once per simulation run
	// (EvaluateWith, and therefore Cost/Evaluate/ComponentsInto).
	// Telemetry only; shared by clones so parallel lanes fold into one
	// total.
	Evals *obs.Counter

	sim *wormhole.Simulator
	sc  *wormhole.Scratch
	cut cdcmCutoff // PriceBelow's bound check, bound to this evaluator
}

// NewCDCM validates the inputs and builds the evaluator.
func NewCDCM(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech, g *model.CDCG) (*CDCM, error) {
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	sim, err := wormhole.NewSimulator(mesh, cfg, g)
	if err != nil {
		return nil, err
	}
	return newCDCMLane(tech, nil, sim), nil
}

// newCDCMLane builds one evaluator lane over a simulator core.
func newCDCMLane(tech energy.Tech, evals *obs.Counter, sim *wormhole.Simulator) *CDCM {
	c := &CDCM{Tech: tech, Evals: evals, sim: sim, sc: sim.NewScratch()}
	c.cut.c = c
	return c
}

// Clone returns an independent evaluator lane sharing this evaluator's
// immutable simulator core: construction cost is one scratch allocation,
// no re-validation and no route recomputation. Clones may run
// concurrently with each other and with the original.
func (c *CDCM) Clone() *CDCM {
	return newCDCMLane(c.Tech, c.Evals, c.sim)
}

// Simulator exposes the underlying wormhole simulator (e.g. to flip
// RecordOccupancy for rendering runs).
func (c *CDCM) Simulator() *wormhole.Simulator { return c.sim }

// Evaluate runs the simulation and prices it under the evaluator's tech.
func (c *CDCM) Evaluate(mp mapping.Mapping) (Metrics, error) {
	return c.EvaluateWith(mp, c.Tech)
}

// EvaluateWith runs the simulation and prices it under an arbitrary
// technology profile — the Table-2 protocol prices the same pair of
// mappings under both 0.35µm and 0.07µm. The run takes the scratch path
// (allocation-free in steady state); Metrics copies everything out, so
// nothing retains the scratch.
func (c *CDCM) EvaluateWith(mp mapping.Mapping, tech energy.Tech) (Metrics, error) {
	if c.Evals != nil {
		c.Evals.Inc()
	}
	res, err := c.sim.RunScratch(mp, c.sc)
	if err != nil {
		return Metrics{}, err
	}
	return c.price(res, tech), nil
}

// price converts a simulation result into Metrics under tech.
//
//nocvet:noalloc
func (c *CDCM) price(res *wormhole.Result, tech energy.Tech) Metrics {
	var rb, lb int64
	for _, b := range res.RouterBits {
		rb += b
	}
	for _, b := range res.LinkBits {
		lb += b
	}
	dyn := tech.DynamicFromTraffic3D(rb, lb, res.TSVBits, res.CoreBits)
	st := tech.StaticEnergy(c.sim.Mesh.NumTiles(), c.sim.Cfg.CyclesToSeconds(res.ExecCycles))
	return Metrics{
		ExecCycles:       res.ExecCycles,
		ExecNS:           c.sim.Cfg.CyclesToNS(res.ExecCycles),
		Energy:           energy.Breakdown{Dynamic: dyn, Static: st},
		ContentionCycles: res.TotalContention,
		TSVBits:          res.TSVBits,
	}
}

// Cost implements search.Objective: ENoC of equation (10), in joules.
// It runs on the evaluator's scratch, so the search engines pay no heap
// allocation per candidate once the scratch is warm.
func (c *CDCM) Cost(mp mapping.Mapping) (float64, error) {
	m, err := c.Evaluate(mp)
	if err != nil {
		return 0, err
	}
	return m.Total(), nil
}

// PriceBelow implements search.CutoffObjective: ENoC of mp like Cost,
// unless reject accepts a certified lower bound first. The bound prices
// the simulator's texec bound (wormhole.Simulator.RunBelow) through the
// pipeline Cost uses: the dynamic term is exact from the route-length
// totals, the same integers a full run's bit aggregates sum to, and the
// static term is monotone in texec, so every bound is ≤ the exact cost
// on the computed float64s. Both bounds come before the first packet:
// tier A, the uncontended critical path, and, when tier A is declined
// and it is larger, the port-load bound (on graphs of 40 cores or more,
// see wormhole.Simulator.PortLoadBound). A stop at either skips the
// simulation and counts nothing in Evals; the engines count it as a
// bound skip. Otherwise the mapping is simulated and priced in full.
//
//nocvet:noalloc
func (c *CDCM) PriceBelow(mp mapping.Mapping, reject func(lb float64) bool) (cost float64, skipped bool, err error) {
	c.cut.reject = reject
	res, err := c.sim.RunBelow(mp, c.sc, &c.cut)
	c.cut.reject = nil
	switch {
	case err != nil:
		return 0, false, err
	case res == nil:
		return 0, true, nil
	}
	if c.Evals != nil {
		c.Evals.Inc()
	}
	return c.price(res, c.Tech).Total(), false, nil
}

var _ search.CutoffObjective = (*CDCM)(nil)

// cdcmCutoff is PriceBelow's wormhole.Cutoff: it prices a texec bound as
// ENoC and hands it to the engine's rejection test.
type cdcmCutoff struct {
	c      *CDCM
	reject func(lb float64) bool
}

// Stop implements wormhole.Cutoff.
//
//nocvet:noalloc
func (k *cdcmCutoff) Stop(t wormhole.Traffic, texecBound int64) bool {
	c := k.c
	dyn := c.Tech.DynamicFromTraffic3D(t.RouterBits, t.LinkBits, t.TSVBits, t.CoreBits)
	lb := dyn + c.Tech.StaticEnergy(c.sim.Mesh.NumTiles(), c.sim.Cfg.CyclesToSeconds(texecBound))
	//nocvet:ignore reject is the engine's allocation-free certified-rejection test
	return k.reject(lb)
}

// Simulate runs the CDCG on a mapping and returns the raw wormhole result
// (timeline, occupancies) together with the priced metrics. Unlike the
// Cost/Evaluate hot path the returned Result has fresh backing arrays —
// independent of the evaluator and safe to keep across later evaluations
// (the trace/Gantt renderers rely on that). It runs on this evaluator's
// own scratch, so clones may Simulate concurrently like they Cost
// concurrently.
func (c *CDCM) Simulate(mp mapping.Mapping) (*wormhole.Result, Metrics, error) {
	res, err := c.sim.RunFresh(mp, c.sc)
	if err != nil {
		return nil, Metrics{}, err
	}
	return res, c.price(res, c.Tech), nil
}
