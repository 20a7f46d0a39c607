package search

import (
	"math/rand"
	"testing"

	"repro/internal/mapping"
)

// TestIncumbentPricingAllocFree pins the pricing seam's hot path: once
// bound, incumbent.price and incumbent.adopt allocate nothing on the
// delta, full, certified (skipped and priced) and surrogate paths, and
// each path books its pricings on its own counter.
func TestIncumbentPricingAllocFree(t *testing.T) {
	p, w := testProblem(t, 4, 3, 10)
	numTiles := p.Mesh.NumTiles()
	skip := func(float64) bool { return true }
	keep := func(float64) bool { return false }
	exact := func(r *Result) int64 { return r.ExactEvals }
	for _, tc := range []struct {
		name    string
		obj     Objective
		surr    bool
		reject  func(lb float64) bool
		counter func(r *Result) int64
	}{
		{"delta", &deltaWireLength{wireLength: *w}, false, nil, exact},
		{"full", w, false, nil, exact},
		{"certified-skipped", &boundWire{w: w, eps: 1e-9}, false, skip,
			func(r *Result) int64 { return r.BoundSkips }},
		{"certified-priced", &boundWire{w: w, eps: 1e-9}, false, keep, exact},
		{"surrogate", &TieredObjective{Exact: w, Surrogate: &surrWire{deltaWireLength{wireLength: *w}}}, true, nil,
			func(r *Result) int64 { return r.SurrogateEvals }},
	} {
		cur, err := mapping.Random(rand.New(rand.NewSource(1)), p.NumCores, numTiles)
		if err != nil {
			t.Fatal(err)
		}
		var inc incumbent
		res := &Result{}
		if _, err := inc.bind(tc.obj, res, cur, numTiles, tc.surr); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ta, tb := cur[0], cur[1]
		before := tc.counter(res)
		allocs := testing.AllocsPerRun(100, func() {
			c, _, skipped, err := inc.price(ta, tb, tc.reject)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if skipped {
				return
			}
			mapping.SwapTiles(inc.cur, inc.occ, ta, tb)
			if err := inc.adopt("test", ta, tb, c); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: price+adopt allocated %.1f times per move, want 0", tc.name, allocs)
		}
		if tc.counter(res) == before {
			t.Errorf("%s: the path's counter never moved: %+v", tc.name, *res)
		}
	}
}
