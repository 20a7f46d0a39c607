package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mapping"
	"repro/internal/topology"
)

// RandomSearch samples independent random mappings — the baseline of the
// paper's reference [4], which reports that guided mapping beats random
// mapping by more than 60% in energy.
type RandomSearch struct {
	Problem Problem
	Seed    int64
	Samples int // 0 defaults to 1000
	// Ctx, when non-nil, cancels the sampling; Run returns ctx.Err().
	Ctx context.Context
	// OnProgress, when non-nil, receives a snapshot every few hundred
	// samples.
	OnProgress ProgressFunc
}

// Run draws and prices Samples random mappings.
func (r *RandomSearch) Run() (*Result, error) {
	if err := r.Problem.validate(); err != nil {
		return nil, err
	}
	samples := r.Samples
	if samples == 0 {
		samples = 1000
	}
	if samples < 0 {
		return nil, fmt.Errorf("search: %d samples", samples)
	}
	rng := rand.New(rand.NewSource(r.Seed))
	res := &Result{BestCost: math.Inf(1)}
	for i := 0; i < samples; i++ {
		if err := pollAt(r.Ctx, res.Evaluations); err != nil {
			return nil, err
		}
		m, err := mapping.Random(rng, r.Problem.NumCores, r.Problem.Mesh.NumTiles())
		if err != nil {
			return nil, err
		}
		c, err := r.Problem.Obj.Cost(m)
		if err != nil {
			return nil, err
		}
		res.Evaluations++
		res.ExactEvals++
		if i == 0 {
			res.InitialCost = c
		}
		if c < res.BestCost {
			res.BestCost = c
			res.Best = m
			res.Improvements++
		}
		if r.OnProgress != nil && (i+1)%256 == 0 {
			r.OnProgress(res.progress("random", 0, i+1, samples,
				res.Improvements, res.Evaluations-res.Improvements, res.BestCost))
		}
	}
	return res, nil
}

// neighbourhood is the swap-scan kernel of HillClimber and Tabu: one
// walk's incumbent and the scan that prices every swap with at least one
// occupied tile through it.
type neighbourhood struct {
	res *Result
	ctx context.Context
	inc incumbent
	// reject is the rejection test against the scan's threshold bestD,
	// built once the exact tier holds certified bounds: a candidate is
	// either skipped at a bound or priced in full.
	reject func(lb float64) bool
	bestD  float64
	// Telemetry counters: each scan accepts at most one neighbour (the
	// applied move) and rejects the rest. Never read by the search.
	accepted, rejected int64
}

// bind starts a walk at cur, pricing it with one exact evaluation, and
// returns its cost.
func (n *neighbourhood) bind(obj Objective, cur mapping.Mapping, numTiles int) (float64, error) {
	cost, err := n.inc.bind(obj, n.res, cur, numTiles, false)
	if n.inc.below != nil && n.reject == nil {
		// Skip rule: the candidate's certified bound lb ≤ c (its exact
		// cost) gives lb−cost ≤ c−cost = d by monotonicity of float
		// subtraction in its first operand, so lb−cost ≥ bestD implies
		// d ≥ bestD and the strict d < bestD selection could never fire —
		// the skipped candidate is exactly one the exact scan would have
		// rejected, which keeps the trajectory bit-identical. The scan
		// only reads admissible's state, so skipping cannot change it
		// either.
		n.reject = func(lb float64) bool { return lb-n.inc.cost >= n.bestD }
	}
	return cost, err
}

// scan prices the neighbourhood and returns the candidate with the
// strictly smallest delta below bestD (0 for steepest descent, +Inf to
// take the best neighbour even when degrading), or ok == false when none
// qualifies. admissible, when non-nil, vetoes a priced candidate before
// selection. All comparisons run in the delta domain: the delta path's
// SwapDelta and the full path's c − cost are bit-identical for an exact
// DeltaObjective, whereas reconstructed absolute costs (cost + d) could
// round a tie apart and make the two paths pick different moves.
func (n *neighbourhood) scan(bestD float64, admissible func(ta, tb topology.TileID, d float64) bool) (
	bestA, bestB topology.TileID, bestC float64, ok bool, err error) {
	numTiles := len(n.inc.occ)
	var scanned int64
	for a := 0; a < numTiles; a++ {
		for b := a + 1; b < numTiles; b++ {
			ta, tb := topology.TileID(a), topology.TileID(b)
			if n.inc.occ[ta] == mapping.Unassigned && n.inc.occ[tb] == mapping.Unassigned {
				continue
			}
			if err := pollAt(n.ctx, n.res.Evaluations); err != nil {
				return 0, 0, 0, false, err
			}
			n.bestD = bestD
			c, d, skipped, err := n.inc.price(ta, tb, n.reject)
			if err != nil {
				return 0, 0, 0, false, err
			}
			scanned++
			if skipped {
				continue
			}
			if admissible != nil && !admissible(ta, tb, d) {
				continue
			}
			if d < bestD {
				bestD, bestC = d, c
				bestA, bestB, ok = ta, tb, true
			}
		}
	}
	if !ok {
		n.rejected += scanned
	} else {
		n.accepted++
		n.rejected += scanned - 1
	}
	return bestA, bestB, bestC, ok, nil
}

// apply commits the swap (a, b) priced at c. The incumbent records an
// exactly recomputed cost, never cost += d (see incumbent.adopt), so
// repeated moves cannot drift from the true cost.
func (n *neighbourhood) apply(engine string, a, b topology.TileID, c float64) error {
	mapping.SwapTiles(n.inc.cur, n.inc.occ, a, b)
	return n.inc.adopt(engine, a, b, c)
}

// HillClimber performs steepest-descent over the swap neighbourhood with
// random restarts: from a random mapping, repeatedly apply the best
// improving swap until none exists. Its O(numTiles²) neighbourhood scan
// per move is where the DeltaObjective fast path pays off most: each
// neighbour is priced in O(deg) instead of a full O(|E|) walk.
type HillClimber struct {
	Problem  Problem
	Seed     int64
	Restarts int // 0 defaults to 3
	// Initial, when non-nil, replaces the first restart's random starting
	// mapping — the warm-start seam (mapping.SeedGreedy plugs in here).
	// Later restarts keep random starts for diversity. Steepest descent
	// never accepts a degrading move, so the first restart's local
	// optimum — and therefore the returned Best — can never price worse
	// than the supplied mapping.
	Initial mapping.Mapping
	// Ctx, when non-nil, cancels the climb; Run returns ctx.Err().
	Ctx context.Context
	// OnProgress, when non-nil, receives a snapshot after every accepted
	// steepest-descent move (Step/Steps count restarts).
	OnProgress ProgressFunc
}

// Run executes the restarts.
func (h *HillClimber) Run() (*Result, error) {
	if err := h.Problem.validate(); err != nil {
		return nil, err
	}
	restarts := h.Restarts
	if restarts == 0 {
		restarts = 3
	}
	if restarts < 0 {
		return nil, fmt.Errorf("search: %d restarts", restarts)
	}
	rng := rand.New(rand.NewSource(h.Seed))
	numTiles := h.Problem.Mesh.NumTiles()
	res := &Result{BestCost: math.Inf(1)}
	n := &neighbourhood{res: res, ctx: h.Ctx}
	for r := 0; r < restarts; r++ {
		initial := h.Initial
		if r != 0 {
			initial = nil
		}
		cur, err := startMapping(rng, initial, h.Problem.NumCores, numTiles)
		if err != nil {
			return nil, err
		}
		cost, err := n.bind(h.Problem.Obj, cur, numTiles)
		if err != nil {
			return nil, err
		}
		if r == 0 {
			res.InitialCost = cost
		}
		for {
			a, b, c, ok, err := n.scan(0, nil)
			if err != nil {
				return nil, err
			}
			if !ok {
				break // local optimum
			}
			if err := n.apply("hill", a, b, c); err != nil {
				return nil, err
			}
			if h.OnProgress != nil {
				best := res.BestCost
				if n.inc.cost < best {
					best = n.inc.cost
				}
				h.OnProgress(res.progress("hill", 0, r+1, restarts, n.accepted, n.rejected, best))
			}
		}
		if n.inc.cost < res.BestCost {
			res.BestCost = n.inc.cost
			res.Best = n.inc.cur.Clone()
			res.Improvements++
		}
	}
	if err := n.inc.finish(res); err != nil {
		return nil, err
	}
	return res, nil
}

// Tabu is a short-term-memory tabu search over the swap neighbourhood
// (extension): the best non-tabu neighbour is taken even when degrading,
// and reversing a recent swap is forbidden for Tenure iterations unless it
// beats the incumbent (aspiration).
type Tabu struct {
	Problem    Problem
	Seed       int64
	Iterations int // 0 defaults to 200
	Tenure     int // 0 defaults to NumTiles/2+1
	// Ctx, when non-nil, cancels the search; Run returns ctx.Err().
	Ctx context.Context
	// OnProgress, when non-nil, receives a snapshot after every iteration.
	OnProgress ProgressFunc
}

// Run executes the tabu search.
func (t *Tabu) Run() (*Result, error) {
	if err := t.Problem.validate(); err != nil {
		return nil, err
	}
	iters := t.Iterations
	if iters == 0 {
		iters = 200
	}
	numTiles := t.Problem.Mesh.NumTiles()
	tenure := t.Tenure
	if tenure == 0 {
		tenure = numTiles/2 + 1
	}
	if iters < 0 || tenure < 0 {
		return nil, fmt.Errorf("search: %d tabu iterations, tenure %d", iters, tenure)
	}
	rng := rand.New(rand.NewSource(t.Seed))
	cur, err := startMapping(rng, nil, t.Problem.NumCores, numTiles)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	n := &neighbourhood{res: res, ctx: t.Ctx}
	cost, err := n.bind(t.Problem.Obj, cur, numTiles)
	if err != nil {
		return nil, err
	}
	res.InitialCost, res.BestCost, res.Best = cost, cost, cur.Clone()

	tabuUntil := make(map[[2]topology.TileID]int, numTiles)
	var it int
	var aspire float64
	// A move reversing a recent swap is tabu unless it beats the
	// incumbent best (aspiration); the threshold is a delta against a
	// per-iteration constant, like every comparison of the scan.
	admissible := func(ta, tb topology.TileID, d float64) bool {
		return !(tabuUntil[[2]topology.TileID{ta, tb}] > it && d >= aspire)
	}
	for ; it < iters; it++ {
		aspire = res.BestCost - n.inc.cost
		a, b, c, ok, err := n.scan(math.Inf(1), admissible)
		if err != nil {
			return nil, err
		}
		if !ok {
			break // every move tabu: rare on real instances
		}
		if err := n.apply("tabu", a, b, c); err != nil {
			return nil, err
		}
		tabuUntil[[2]topology.TileID{a, b}] = it + tenure
		if n.inc.cost < res.BestCost {
			res.BestCost = n.inc.cost
			copy(res.Best, n.inc.cur)
			res.Improvements++
		}
		if t.OnProgress != nil {
			t.OnProgress(res.progress("tabu", 0, it+1, iters, n.accepted, n.rejected, res.BestCost))
		}
	}
	if err := n.inc.finish(res); err != nil {
		return nil, err
	}
	return res, nil
}
