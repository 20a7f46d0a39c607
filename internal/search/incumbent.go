package search

import (
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/topology"
)

// incumbent is the walk state of the Annealer and the neighbourhood
// engines (HillClimber, Tabu) and their one pricing seam: the current
// mapping, its occupancy view, the single tracked exact cost of that
// mapping, and the tier that prices the walk's candidates. bind picks
// the tier once, so the engines never branch on it:
//
//   - delta: the exact tier is a DeltaObjective, priced in O(deg) per
//     swap and committed on acceptance;
//   - surrogate: on request (the Annealer's), the tier-B surrogate of a
//     TieredObjective prices candidates and every adopted move is
//     exact-repriced;
//   - full: the exact tier prices every candidate in full, through
//     PriceBelow's certified bounds when it is a CutoffObjective.
//
// The invariant: after bind/adopt, inc.cost is always an exactly
// recomputed cost of inc.cur — bind's initial pricing, or an adopted
// move's full/Commit/exact-reprice pricing — never an accumulation of
// deltas.
type incumbent struct {
	cur  mapping.Mapping
	occ  []model.CoreID
	cost float64

	// res receives the walk's evaluation counters, advanced where each
	// pricing happens.
	res *Result
	// exact is the authoritative pricer (the exact tier of a
	// TieredObjective); dobj, surr and below are its delta view, the
	// surrogate and its cut-off view — at most one of them is set.
	exact Objective
	dobj  DeltaObjective
	surr  DeltaObjective
	below CutoffObjective
	// scost tracks the surrogate's own baseline the way cost tracks the
	// exact one.
	scost float64
}

// bind points the incumbent at a walk's starting state, prices it with
// one counted exact evaluation and returns that cost. useSurrogate lets
// the walk run on obj's tier-B surrogate, if it has one; a delta-capable
// exact tier is already as cheap as any surrogate and always wins.
func (inc *incumbent) bind(obj Objective, res *Result, cur mapping.Mapping, numTiles int, useSurrogate bool) (float64, error) {
	inc.cur, inc.occ, inc.res, inc.exact = cur, cur.Occupants(numTiles), res, exactOf(obj)
	inc.dobj, inc.surr, inc.below = nil, nil, nil
	res.Evaluations++
	res.ExactEvals++
	var err error
	if d, ok := inc.exact.(DeltaObjective); ok {
		inc.dobj = d
		inc.cost, err = d.Reset(cur)
		return inc.cost, err
	}
	if inc.cost, err = inc.exact.Cost(cur); err != nil {
		return 0, err
	}
	if s := surrogateOf(obj); s != nil && useSurrogate {
		inc.surr = s
		inc.scost, err = s.Reset(cur)
		return inc.cost, err
	}
	inc.below, _ = inc.exact.(CutoffObjective)
	return inc.cost, nil
}

// price returns the cost of the walk with (ta, tb) swapped and its delta
// against the tracked cost, leaving cur and occ as they were. On the
// surrogate path both are in the surrogate's scale. A non-nil reject
// lets a cut-off exact tier skip the candidate at a certified bound
// (skipped set, c and d meaningless); see CutoffObjective.
func (inc *incumbent) price(ta, tb topology.TileID, reject func(lb float64) bool) (c, d float64, skipped bool, err error) {
	inc.res.Evaluations++
	switch {
	case inc.dobj != nil:
		inc.res.ExactEvals++
		d, err = inc.dobj.SwapDelta(inc.occ, ta, tb)
		return inc.cost + d, d, false, err
	case inc.surr != nil:
		inc.res.SurrogateEvals++
		d, err = inc.surr.SwapDelta(inc.occ, ta, tb)
		return inc.scost + d, d, false, err
	}
	mapping.SwapTiles(inc.cur, inc.occ, ta, tb)
	if reject != nil && inc.below != nil {
		c, skipped, err = inc.below.PriceBelow(inc.cur, reject)
	} else {
		c, err = inc.exact.Cost(inc.cur)
	}
	mapping.SwapTiles(inc.cur, inc.occ, ta, tb) // undo
	if skipped {
		inc.res.BoundSkips++
	} else {
		inc.res.ExactEvals++
	}
	return c, c - inc.cost, skipped, err
}

// adopt records the exact cost of the (already swapped) current mapping
// after the move (ta, tb) priced at c: the delta path's Commit recompute,
// the full path's c itself, or — on the surrogate path — an immediate
// exact repricing, so the walk may be steered by the surrogate but the
// incumbent only holds exact values. It then notifies the test audit
// hook, if any.
func (inc *incumbent) adopt(engine string, ta, tb topology.TileID, c float64) error {
	switch {
	case inc.dobj != nil:
		c = inc.dobj.Commit(ta, tb)
	case inc.surr != nil:
		inc.scost = inc.surr.Commit(ta, tb)
		var err error
		if c, err = inc.exact.Cost(inc.cur); err != nil {
			return err
		}
		inc.res.Evaluations++
		inc.res.ExactEvals++
	}
	inc.cost = c
	if incumbentAudit != nil {
		incumbentAudit(engine, inc.exact, inc)
	}
	return nil
}

// moveTo jumps the walk to a copy of mp, whose exact cost is cost, and
// returns the tracked cost afterwards. The delta path rebinds its
// baseline with a full recompute, which also flushes any floating-point
// drift the deltas picked up since the last Reset; the surrogate path
// rebinds the surrogate's.
func (inc *incumbent) moveTo(mp mapping.Mapping, cost float64) (float64, error) {
	copy(inc.cur, mp)
	for i := range inc.occ {
		inc.occ[i] = mapping.Unassigned
	}
	for c, t := range inc.cur {
		inc.occ[t] = model.CoreID(c)
	}
	inc.cost = cost
	var err error
	switch {
	case inc.dobj != nil:
		inc.cost, err = inc.dobj.Reset(inc.cur)
	case inc.surr != nil:
		inc.scost, err = inc.surr.Reset(inc.cur)
	}
	return inc.cost, err
}

// finish re-prices res.Best with one full exact evaluation on the delta
// and surrogate paths — the final guard against objectives whose deltas
// are only approximately consistent with Cost. Deliberately not counted
// in res.Evaluations: it is a guard, not search work, and keeping the
// count identical to the full-recompute path makes the paths directly
// comparable in tests.
func (inc *incumbent) finish(res *Result) error {
	if inc.dobj == nil && inc.surr == nil {
		return nil
	}
	c, err := inc.exact.Cost(res.Best)
	res.BestCost = c
	return err
}

// incumbentAudit is a test-only hook invoked after every adopted move
// with the engine name, the walk's objective and the incumbent state.
// The invariant test re-prices inc.cur and asserts bitwise equality with
// inc.cost. Nil in production: the only hot-path cost is one nil check
// per accepted move (not per scanned candidate).
var incumbentAudit func(engine string, obj Objective, inc *incumbent)
