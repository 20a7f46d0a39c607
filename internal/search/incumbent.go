package search

import (
	"repro/internal/mapping"
	"repro/internal/model"
)

// incumbent is the walk state of the Annealer and the neighbourhood
// engines (HillClimber, Tabu): the current mapping, its occupancy view,
// and the single tracked exact cost of that mapping. One field makes the
// tier-A bound compare one read (`lb - inc.cost`) and gives the drift
// invariant one seam to audit.
//
// The invariant: after bind/adopt, inc.cost is always an exactly
// recomputed cost of inc.cur — either bindObjective's initial pricing or
// an accepted move's full/Commit/exact-reprice pricing — never an
// accumulation of deltas.
type incumbent struct {
	cur  mapping.Mapping
	occ  []model.CoreID
	cost float64
}

// bind points the incumbent at a walk's starting state.
func (inc *incumbent) bind(cur mapping.Mapping, numTiles int, cost float64) {
	inc.cur = cur
	inc.occ = cur.Occupants(numTiles)
	inc.cost = cost
}

// moveTo jumps the walk to a copy of mp, whose exact cost is cost.
func (inc *incumbent) moveTo(mp mapping.Mapping, cost float64) {
	copy(inc.cur, mp)
	for i := range inc.occ {
		inc.occ[i] = mapping.Unassigned
	}
	for c, t := range inc.cur {
		inc.occ[t] = model.CoreID(c)
	}
	inc.cost = cost
}

// adopt records an exactly recomputed cost for the (already swapped)
// current mapping and notifies the test audit hook, if any.
func (inc *incumbent) adopt(engine string, obj Objective, cost float64) {
	inc.cost = cost
	if incumbentAudit != nil {
		incumbentAudit(engine, obj, inc)
	}
}

// incumbentAudit is a test-only hook invoked after every adopted move
// with the engine name, the walk's objective and the incumbent state.
// The invariant test re-prices inc.cur and asserts bitwise equality with
// inc.cost. Nil in production: the only hot-path cost is one nil check
// per accepted move (not per scanned candidate).
var incumbentAudit func(engine string, obj Objective, inc *incumbent)
