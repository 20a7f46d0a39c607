package core

import (
	"errors"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/search"
	"repro/internal/topology"
)

// This file implements search.DeltaObjective for CWM: incremental O(deg)
// pricing of tile swaps. EDyNoC (equation (3)) is a linear function of
// the integer traffic aggregate routerBits = Σ w·K (link-bits derive as
// routerBits − Σw), and a swap of tiles (ta, tb) only moves the cores
// occupying them, so only edges incident to those cores can change their
// K. The evaluator binds a baseline mapping with Reset, prices proposed
// swaps against it with SwapDelta using the per-core adjacency built in
// NewCWM, and folds accepted swaps into the baseline with Commit.
//
// Because the aggregate lives in exact integer arithmetic, the
// incremental path is not merely close to the full walk — it reproduces
// it bit-for-bit: SwapDelta derives the swapped cost from the updated
// integer through the same DynamicFromTraffic call Cost uses, so
// equal-energy mappings tie exactly on both paths and a delta-driven
// engine retraces the full-recompute engine move for move under a fixed
// seed. CDCM deliberately does not implement the interface: its objective
// includes contention-dependent execution time, a global property with no
// cheap swap delta, so the search engines keep the full simulator path.
//
// The hot loop prices the moved core's edges against one kCache row: the
// moving core's new tile is fixed across its whole edge list, and K is
// direction-symmetric for the minimal dimension-ordered routings
// (XY/YX/XYZ/ZYX) on mesh and torus in 2-D and 3-D alike (K = MinHops+1;
// TestRouteKSymmetric and the property tests in internal/topology pin the
// invariant), so K(newTile, otherTile) equals the K a full walk would
// route for the edge regardless of the edge's direction. The vertical
// (TSV) hop count V shares the symmetry — it is a pure Z distance — so
// the 3-D aggregate Σ w·V is maintained the same way.
//
// The bound state makes a CWM performing incremental evaluation stateful
// and not safe for concurrent use; parallel engines build one instance
// per worker lane via search.ObjectiveFactory (core.Explore already does).

// CWM opts into the engines' incremental fast path; CDCM must not.
var _ search.DeltaObjective = (*CWM)(nil)

// adjEdge is one incident edge in a core's adjacency: the other endpoint,
// the index into G.Edges / edgeK, and the bit volume. One flat struct per
// edge keeps the hot loop at a single bounds check and one cache line per
// couple of edges.
type adjEdge struct {
	nbr  int32 // other endpoint core
	edge int32 // index into G.Edges / edgeK
	bits int64
}

// coreAdj is one core's incident edge list.
type coreAdj struct {
	edges []adjEdge
}

// Reset implements search.DeltaObjective: it binds a copy of mp as the
// incremental baseline and returns its full EDyNoC. Reset is the
// validating entry point of the hot-path contract — it checks injectivity
// once, outside the hot loop, so Cost and SwapDelta never have to.
func (c *CWM) Reset(mp mapping.Mapping) (float64, error) {
	if len(mp) != c.G.NumCores() {
		return 0, errors.New("core: mapping does not cover the CWG")
	}
	if err := mp.Validate(c.numTiles); err != nil {
		return 0, err
	}
	if c.bound == nil {
		c.bound = mp.Clone()
		c.boundOcc = mp.Occupants(c.numTiles)
		c.edgeK = make([]int16, len(c.G.Edges))
		if !c.flat {
			c.edgeV = make([]int16, len(c.G.Edges))
		}
	} else {
		copy(c.bound, mp)
		for i := range c.boundOcc {
			c.boundOcc[i] = mapping.Unassigned
		}
		for core, t := range c.bound {
			c.boundOcc[t] = model.CoreID(core)
		}
	}
	c.routerBits = 0
	c.tsvBits = 0
	for i, e := range c.G.Edges {
		k, err := c.routers(mp[e.Src], mp[e.Dst])
		if err != nil {
			return 0, err
		}
		c.edgeK[i] = int16(k)
		c.routerBits += e.Bits * int64(k)
		if !c.flat {
			v := c.vCache[int(mp[e.Src])*c.numTiles+int(mp[e.Dst])]
			c.edgeV[i] = v
			c.tsvBits += e.Bits * int64(v)
		}
	}
	return c.Tech.DynamicFromTraffic3D(c.routerBits, c.routerBits-c.totalBits, c.tsvBits, c.coreBits), nil
}

// SwapDelta implements search.DeltaObjective: the EDyNoC change of
// exchanging the occupants of ta and tb, priced in O(deg(a)+deg(b))
// against the bound baseline without applying the swap. occ must be the
// occupancy view of the bound mapping (the search engines maintain it
// alongside their working copy). Old router counts come from the edgeK
// cache and new ones from a single kCache row per moved core, so pricing
// records nothing — an accepted swap is folded in by Commit, which
// re-probes the same warm rows. The returned delta is the difference of
// the swapped and baseline costs, each derived from the exact integer
// aggregate exactly as Cost derives them — which is what keeps the
// incremental path bit-identical to full recomputes.
//
//nocvet:noalloc
func (c *CWM) SwapDelta(occ []model.CoreID, ta, tb topology.TileID) (float64, error) {
	if c.bound == nil {
		return 0, errors.New("core: SwapDelta before Reset")
	}
	if c.Evals != nil {
		c.Evals.Inc()
	}
	dR, dV, err := c.swapAgg(occ, ta, tb)
	if err != nil {
		return 0, err
	}
	if dR == 0 && dV == 0 {
		// Unchanged aggregates mean the full path would price the swapped
		// mapping at a bit-identical cost, so the delta is an exact zero.
		return 0, nil
	}
	rb, vb := c.routerBits, c.tsvBits
	return c.Tech.DynamicFromTraffic3D(rb+dR, rb+dR-c.totalBits, vb+dV, c.coreBits) -
		c.Tech.DynamicFromTraffic3D(rb, rb-c.totalBits, vb, c.coreBits), nil
}

// swapAgg prices the integer-aggregate change of exchanging the occupants
// of ta and tb against the bound baseline, in O(deg(a)+deg(b)) and
// without applying the swap: dR is the routerBits change, dV the tsvBits
// change. It is the shared kernel of SwapDelta and the tier-B
// surrogate's SwapDelta (cdcmSurrogate), which both need the swapped
// mapping's exact integer aggregates without mutating the baseline.
//
//nocvet:noalloc
func (c *CWM) swapAgg(occ []model.CoreID, ta, tb topology.TileID) (dR, dV int64, err error) {
	ca, cb := occ[ta], occ[tb]
	bound := c.bound
	edgeK := c.edgeK
	// Two passes: ca's incident edges, then cb's. Edges between ca and cb
	// are priced once — the second pass skips edges touching ca (skip ==
	// Unassigned matches no core, so the first pass skips nothing).
	for pass := 0; pass < 2; pass++ {
		x, skip, nt := ca, mapping.Unassigned, tb
		if pass == 1 {
			x, skip, nt = cb, ca, ta
		}
		if x == mapping.Unassigned {
			continue
		}
		skipI := int32(skip)
		row := c.kCache[int(nt)*c.numTiles : (int(nt)+1)*c.numTiles]
		// vrow stays nil on depth-1 grids: the vertical aggregate then
		// costs the 2-D hot loop nothing but one predictable branch.
		var vrow []int16
		if !c.flat {
			vrow = c.vCache[int(nt)*c.numTiles : (int(nt)+1)*c.numTiles]
		}
		for _, ae := range c.adj[x].edges {
			if ae.nbr == skipI {
				continue
			}
			ot := bound[ae.nbr]
			if ot == ta {
				ot = tb
			} else if ot == tb {
				ot = ta
			}
			k := row[ot]
			if k == 0 {
				//nocvet:ignore cache-miss fallback: every pair is computed once, then served from kCache; amortized alloc-free
				kk, err := c.routersSlow(nt, ot)
				if err != nil {
					return 0, 0, err
				}
				k = int16(kk)
			}
			// Unconditional multiply-add: a dk==0 guard would mispredict
			// on real swap mixes and cost more than the multiply.
			dR += ae.bits * (int64(k) - int64(edgeK[ae.edge]))
			if vrow != nil {
				// routersSlow fills both caches, so vrow[ot] is valid
				// whenever row[ot] is.
				dV += ae.bits * (int64(vrow[ot]) - int64(c.edgeV[ae.edge]))
			}
		}
	}
	return dR, dV, nil
}

// Commit implements search.DeltaObjective: it folds an accepted swap into
// the bound baseline, refreshing the stored router count of every edge
// incident to the moved cores, and returns the exact cost of the updated
// baseline (the same DynamicFromTraffic expression Cost evaluates, so the
// engines' tracked cost stays bit-identical to full recomputes).
// Re-probing the warm route-cache rows here keeps SwapDelta free of
// bookkeeping — pricing runs for every proposal, commits only for
// accepted ones.
//
//nocvet:noalloc
func (c *CWM) Commit(ta, tb topology.TileID) float64 {
	ca, cb := c.boundOcc[ta], c.boundOcc[tb]
	mapping.SwapTiles(c.bound, c.boundOcc, ta, tb)
	c.refreshEdges(ca, mapping.Unassigned)
	c.refreshEdges(cb, ca)
	return c.Tech.DynamicFromTraffic3D(c.routerBits, c.routerBits-c.totalBits, c.tsvBits, c.coreBits)
}

// refreshEdges re-probes the edges incident to core x under the updated
// baseline, skipping edges to skip (already refreshed by the partner's
// pass). Route lookups cannot fail here: the baseline is a validated
// mapping, so both endpoints are in-range tiles of a connected mesh.
//
//nocvet:noalloc
func (c *CWM) refreshEdges(x, skip model.CoreID) {
	if x == mapping.Unassigned {
		return
	}
	nt := c.bound[x]
	row := c.kCache[int(nt)*c.numTiles : (int(nt)+1)*c.numTiles]
	var vrow []int16
	if !c.flat {
		vrow = c.vCache[int(nt)*c.numTiles : (int(nt)+1)*c.numTiles]
	}
	bound := c.bound
	edgeK := c.edgeK
	skipI := int32(skip)
	for _, ae := range c.adj[x].edges {
		if ae.nbr == skipI {
			continue
		}
		// K is direction-symmetric (see the invariant note above), so the
		// probe need not honour the edge's direction.
		ot := bound[ae.nbr]
		k := row[ot]
		if k == 0 {
			//nocvet:ignore cache-miss fallback: every pair is computed once, then served from kCache; amortized alloc-free
			kk, err := c.routersSlow(nt, ot)
			if err != nil {
				panic("core: route failed for a validated bound mapping: " + err.Error())
			}
			k = int16(kk)
		}
		c.routerBits += ae.bits * (int64(k) - int64(edgeK[ae.edge]))
		edgeK[ae.edge] = k
		if vrow != nil {
			v := vrow[ot]
			c.tsvBits += ae.bits * (int64(v) - int64(c.edgeV[ae.edge]))
			c.edgeV[ae.edge] = v
		}
	}
}
