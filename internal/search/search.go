// Package search provides the mapping-space exploration engines of the
// FRW framework: simulated annealing (the paper's workhorse), exhaustive
// search (used on small NoCs to certify optimality), plus hill climbing,
// random sampling and tabu search as extensions. All engines are
// deterministic under a fixed seed and generic over an Objective, so the
// same machinery explores both the CWM and the CDCM cost functions.
package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/topology"
)

// Objective prices a mapping; lower is better. Implementations are the
// CWM evaluator (EDyNoC of equation (3)) and the CDCM evaluator (ENoC of
// equation (10)) in package core.
//
// Hot-path contract: the engines call Cost once per proposed move, always
// with a structurally valid, injective mapping — starting points are
// validated once up front (mapping.Random output, or the explicit
// Initial/Reset validation) and every subsequent move is an
// injectivity-preserving tile swap. Implementations may therefore skip
// per-call validation inside Cost. Callers pricing externally supplied
// mappings must validate them first (mapping.Validate) or go through an
// entry point that does, such as core.CWM.Reset or core.CWM.Traffic.
type Objective interface {
	Cost(mp mapping.Mapping) (float64, error)
}

// DeltaObjective is an optional extension of Objective for evaluators
// that can price a single tile swap incrementally. A swap of tiles
// (ta, tb) only changes the contributions of the edges incident to the
// affected cores, so an implementation holding per-core incidence lists
// prices a move in O(deg(a)+deg(b)) instead of the O(|E|) full walk —
// the difference between tolerable and fast on large meshes, where the
// engines evaluate tens of thousands of moves per run.
//
// The protocol is bind/price/apply:
//
//	cost, _ := obj.Reset(mp)           // bind mp (copied) and price it fully
//	d, _ := obj.SwapDelta(occ, ta, tb) // price a proposed swap, no mutation
//	cost = obj.Commit(ta, tb)          // make an accepted swap permanent
//
// occ must be the occupancy view of the bound mapping (the engines
// maintain it alongside their working mapping). The engines type-assert
// their Problem.Obj against this interface and fall back to plain Cost
// when it is absent (the CDCM simulator keeps the full path: contention
// is global, so no cheap swap delta exists).
//
// Commit returns the exact cost of the updated baseline, and the engines
// adopt it as their tracked cost: accumulating cost += delta instead
// would let floating-point rounding drift the walk away from the
// full-recompute path and flip comparisons on exact cost ties. As a
// final guard — implementations whose deltas are only approximately
// consistent with Cost still converge — the engines also re-price the
// returned Best with one full Cost call.
//
// A DeltaObjective is stateful between Reset and the last Commit and
// therefore never safe for concurrent use; the parallel engines must
// receive an ObjectiveFactory so each worker lane binds its own instance.
type DeltaObjective interface {
	Objective
	// Reset binds a copy of mp as the incremental baseline and returns
	// its full cost. It validates mp (including injectivity) — the one
	// validation point of the hot-path contract.
	Reset(mp mapping.Mapping) (float64, error)
	// SwapDelta returns cost(swapped) − cost(bound) for exchanging the
	// occupants of ta and tb, without applying the swap. occ is the
	// occupancy view of the bound mapping.
	SwapDelta(occ []model.CoreID, ta, tb topology.TileID) (float64, error)
	// Commit applies a swap to the bound state and returns the exact
	// cost of the updated baseline. Call it exactly when the engine
	// accepts a move previously priced with SwapDelta.
	Commit(ta, tb topology.TileID) float64
}

// ObjectiveFunc adapts a plain function to the Objective interface.
type ObjectiveFunc func(mp mapping.Mapping) (float64, error)

// Cost implements Objective.
func (f ObjectiveFunc) Cost(mp mapping.Mapping) (float64, error) { return f(mp) }

// bindObjective primes an objective for one walk over the given starting
// mapping: a DeltaObjective binds it via Reset (which also validates
// injectivity), the fallback prices it with a plain Cost call. A
// TieredObjective is unwrapped to its exact tier first, so tiered runs
// bind and price on exactly the bare evaluator's code path. The caller
// counts the returned evaluation (an exact one).
func bindObjective(obj Objective, mp mapping.Mapping) (cost float64, dobj DeltaObjective, useDelta bool, err error) {
	obj = exactOf(obj)
	if dobj, ok := obj.(DeltaObjective); ok {
		c, err := dobj.Reset(mp)
		return c, dobj, true, err
	}
	c, err := obj.Cost(mp)
	return c, nil, false, err
}

// repriceBest re-prices res.Best with one full evaluation — the delta
// path's final guard against objectives whose deltas are only
// approximately consistent with Cost. Deliberately not counted in
// res.Evaluations: it is a guard, not search work, and keeping the count
// identical to the full-recompute path makes the two paths directly
// comparable in tests.
func repriceBest(obj Objective, res *Result) error {
	c, err := obj.Cost(res.Best)
	if err != nil {
		return err
	}
	res.BestCost = c
	return nil
}

// Result reports the outcome of one search run.
type Result struct {
	// Best is the lowest-cost mapping found.
	Best mapping.Mapping
	// BestCost is its objective value.
	BestCost float64
	// InitialCost is the objective value of the starting mapping.
	InitialCost float64
	// Evaluations counts candidate pricings, whatever tier priced them:
	// Evaluations == ExactEvals + BoundSkips + SurrogateEvals always
	// holds, and a tier-A run's Evaluations equals the unfiltered run's
	// (skipped candidates still count — they were priced, by the bound).
	Evaluations int64
	// ExactEvals counts pricings that ran the exact objective. A run
	// without tiers has ExactEvals == Evaluations.
	ExactEvals int64
	// BoundSkips counts candidates dismissed by the tier-A certified
	// lower bound without an exact pricing.
	BoundSkips int64
	// SurrogateEvals counts candidates priced by the tier-B calibrated
	// surrogate instead of the exact objective.
	SurrogateEvals int64
	// Improvements counts strict improvements of the incumbent best.
	Improvements int64
	// Certified is true when the whole space was enumerated (exhaustive
	// search without hitting a limit), i.e. Best is a global optimum.
	Certified bool
}

// Problem describes the placement instance shared by all engines.
type Problem struct {
	Mesh     *topology.Mesh
	NumCores int
	Obj      Objective
}

func (p *Problem) validate() error {
	if p.Mesh == nil {
		return errors.New("search: nil mesh")
	}
	if p.Obj == nil {
		return errors.New("search: nil objective")
	}
	if p.NumCores <= 0 || p.NumCores > p.Mesh.NumTiles() {
		return fmt.Errorf("search: %d cores cannot be placed on %d tiles",
			p.NumCores, p.Mesh.NumTiles())
	}
	return nil
}

// Annealer is the paper's simulated-annealing engine: start from a random
// mapping, propose tile swaps, accept degradations with Metropolis
// probability under a geometrically cooling temperature, and keep the best
// mapping seen.
type Annealer struct {
	Problem Problem
	// Seed makes the run reproducible.
	Seed int64
	// Initial, when non-nil, replaces the random starting mapping.
	Initial mapping.Mapping
	// InitialTemp is the starting temperature in objective units. Zero
	// auto-calibrates it from sampled moves so that ~90% of degrading
	// moves are initially accepted (objective magnitudes here are
	// picojoules, so a fixed default would be meaningless).
	InitialTemp float64
	// Alpha is the geometric cooling factor in (0,1); 0 defaults to 0.95.
	Alpha float64
	// MovesPerTemp is the number of proposed swaps per temperature step;
	// 0 defaults to 10 × NumTiles.
	MovesPerTemp int
	// TempSteps bounds the number of cooling steps; 0 defaults to 100.
	TempSteps int
	// StallSteps stops early after this many consecutive temperature
	// steps without improving the incumbent; 0 defaults to 20.
	StallSteps int
	// Reheats restarts a stalled schedule: the walk jumps back to the
	// best mapping and the temperature resets to half the previous
	// starting temperature, up to Reheats times. Reheating spends the
	// same per-step budget but escapes local basins on rugged landscapes
	// (the contention-driven CDCM objective in particular).
	Reheats int
	// Ctx, when non-nil, makes the run cancellable: the inner loops poll
	// it every few evaluations and Run returns ctx.Err() once it is done.
	// A nil Ctx (the default) takes exactly the historical code path —
	// polling never touches the RNG or the incumbent, so results are
	// bit-identical with or without a context.
	Ctx context.Context
	// OnProgress, when non-nil, receives a snapshot after every
	// temperature step. Observational only; see ProgressFunc.
	OnProgress ProgressFunc
}

// Run executes the annealing schedule.
func (a *Annealer) Run() (*Result, error) {
	if err := a.Problem.validate(); err != nil {
		return nil, err
	}
	if err := pollCtx(a.Ctx); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(a.Seed))
	numTiles := a.Problem.Mesh.NumTiles()

	cur := a.Initial
	if cur == nil {
		var err error
		cur, err = mapping.Random(rng, a.Problem.NumCores, numTiles)
		if err != nil {
			return nil, err
		}
	} else {
		if len(cur) != a.Problem.NumCores {
			return nil, fmt.Errorf("search: initial mapping has %d cores, want %d", len(cur), a.Problem.NumCores)
		}
		if err := cur.Validate(numTiles); err != nil {
			return nil, err
		}
		cur = cur.Clone()
	}
	occ := cur.Occupants(numTiles)

	res := &Result{}
	cost, dobj, useDelta, err := bindObjective(a.Problem.Obj, cur)
	if err != nil {
		return nil, err
	}
	res.Evaluations++
	res.ExactEvals++
	res.InitialCost = cost
	res.Best = cur.Clone()
	res.BestCost = cost

	// Tier-B surrogate walk (see TieredObjective): candidates are priced
	// on the calibrated surrogate and only accepted moves pay an exact
	// pricing, so `cost` (and therefore Best/BestCost) stays exact while
	// the Metropolis decisions run on surrogate deltas. scost tracks the
	// surrogate's own baseline the way cost tracks the exact one on the
	// delta path. Never combined with useDelta: a delta-capable exact
	// objective is already as cheap as any surrogate.
	surr := surrogateOf(a.Problem.Obj)
	useSurr := surr != nil && !useDelta
	var scost float64
	if useSurr {
		if scost, err = surr.Reset(cur); err != nil {
			return nil, err
		}
	}

	// Tier-A certified Metropolis rejection (see TieredObjective): nil
	// unless the objective carries a bound and candidates are priced with
	// full exact Cost calls — a delta-capable exact objective is already
	// cheaper than any bound probe, and a surrogate walk decides on
	// surrogate deltas the bound does not order.
	var bnd LowerBoundObjective
	if !useDelta && !useSurr {
		if bnd, err = bindBound(a.Problem.Obj, cur); err != nil {
			return nil, err
		}
	}

	// A 1-tile mesh admits exactly one mapping, so it is already the
	// optimum — and propose() below could never draw two distinct tiles:
	// without this return the calibration pass would spin forever.
	if numTiles < 2 {
		return res, nil
	}

	alpha := a.Alpha
	if alpha == 0 {
		alpha = 0.95
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("search: alpha %g outside (0,1)", alpha)
	}
	moves := a.MovesPerTemp
	if moves == 0 {
		moves = 10 * numTiles
	}
	steps := a.TempSteps
	if steps == 0 {
		steps = 100
	}
	stall := a.StallSteps
	if stall == 0 {
		stall = 20
	}

	propose := func() (ta, tb topology.TileID) {
		for {
			// Draw the first tile through a uniform core, so it is always
			// occupied: a swap of two empty tiles is a no-op, and on a
			// sparsely occupied mesh drawing tiles directly wastes most
			// draws on empty-empty pairs before finding a real move.
			ta = cur[rng.Intn(len(cur))]
			tb = topology.TileID(rng.Intn(numTiles))
			if ta != tb {
				return ta, tb
			}
		}
	}

	// price returns the would-be cost of swapping (ta, tb) and its delta
	// against the current cost, leaving cur/occ untouched. The delta path
	// asks the objective for the O(deg) incremental price; the fallback
	// applies the swap, runs a full Cost, and undoes it.
	price := func(ta, tb topology.TileID) (float64, float64, error) {
		if useDelta {
			d, err := dobj.SwapDelta(occ, ta, tb)
			return cost + d, d, err
		}
		if useSurr {
			// Surrogate pricing: the returned delta (and so the Metropolis
			// decision) lives in the surrogate's own scale.
			d, err := surr.SwapDelta(occ, ta, tb)
			return scost + d, d, err
		}
		mapping.SwapTiles(cur, occ, ta, tb)
		c, err := a.Problem.Obj.Cost(cur)
		mapping.SwapTiles(cur, occ, ta, tb) // undo
		return c, c - cost, err
	}
	// countEval attributes one priced candidate to the tier that priced
	// it; Evaluations always advances so the poll cadence and the
	// reported totals are tier-independent.
	countEval := func() {
		res.Evaluations++
		if useSurr {
			res.SurrogateEvals++
		} else {
			res.ExactEvals++
		}
	}
	// accept applies the swap priced at newCost. On the delta path the
	// tracked cost is Commit's exact recompute of the updated baseline,
	// not an accumulation of deltas — see the DeltaObjective contract. On
	// the surrogate path the applied move is immediately re-priced
	// exactly: the walk may be steered by the surrogate, but the tracked
	// incumbent (and so Best/BestCost) only ever holds exact values.
	accept := func(ta, tb topology.TileID, newCost float64) error {
		mapping.SwapTiles(cur, occ, ta, tb)
		if bnd != nil {
			bnd.CommitBound(ta, tb)
		}
		switch {
		case useDelta:
			newCost = dobj.Commit(ta, tb)
		case useSurr:
			scost = surr.Commit(ta, tb)
			c, err := a.Problem.Obj.Cost(cur)
			if err != nil {
				return err
			}
			res.Evaluations++
			res.ExactEvals++
			newCost = c
		}
		cost = newCost
		return nil
	}

	temp := a.InitialTemp
	if temp <= 0 {
		// Calibration pass: sample some moves and set T0 so that an
		// average degradation is accepted with probability ~0.9.
		var sum float64
		var n int
		for i := 0; i < 40; i++ {
			if a.Ctx != nil && res.Evaluations%pollEvery == 0 {
				if err := pollCtx(a.Ctx); err != nil {
					return nil, err
				}
			}
			ta, tb := propose()
			_, d, err := price(ta, tb)
			if err != nil {
				return nil, err
			}
			countEval()
			if d > 0 {
				sum += d
				n++
			}
		}
		if n > 0 {
			temp = (sum / float64(n)) / -math.Log(0.9)
		} else {
			// Start in a local minimum w.r.t. sampled moves: any positive
			// temperature works; pick one proportional to the cost scale.
			temp = math.Max(cost*0.01, 1e-300)
		}
	}

	stalled := 0
	reheatsLeft := a.Reheats
	baseTemp := temp
	// Telemetry counters: updated on every move decision, emitted in
	// Progress snapshots, never read by the walk itself — so counting
	// cannot perturb the RNG stream or the incumbent.
	var accepted, rejected int64
	for step := 0; step < steps; step++ {
		if stalled >= stall {
			if reheatsLeft <= 0 {
				break
			}
			// Reheat: continue from the incumbent best at half the
			// previous starting temperature.
			reheatsLeft--
			baseTemp /= 2
			temp = baseTemp
			copy(cur, res.Best)
			for i := range occ {
				occ[i] = mapping.Unassigned
			}
			for c, tl := range cur {
				occ[tl] = model.CoreID(c)
			}
			cost = res.BestCost
			if useDelta {
				// Rebind the incremental baseline to the jump target. The
				// full recompute also flushes any floating-point drift the
				// accumulated deltas picked up since the last Reset.
				c, err := dobj.Reset(cur)
				if err != nil {
					return nil, err
				}
				cost = c
				res.BestCost = c
			}
			if useSurr {
				// Rebind the surrogate baseline to the jump target; cost
				// stays the incumbent's exact BestCost.
				if scost, err = surr.Reset(cur); err != nil {
					return nil, err
				}
			}
			if bnd != nil {
				if _, err := bnd.ResetBound(cur); err != nil {
					return nil, err
				}
			}
			stalled = 0
		}
		improvedThisStep := false
		for mv := 0; mv < moves; mv++ {
			if a.Ctx != nil && res.Evaluations%pollEvery == 0 {
				if err := pollCtx(a.Ctx); err != nil {
					return nil, err
				}
			}
			ta, tb := propose()
			// Certified rejection: lb > cost proves d > 0, so the walk
			// is certain to draw its Metropolis variate for this move.
			// Drawing it before pricing leaves the RNG stream unchanged,
			// and when the bound alone already rejects, the exact
			// pricing is skipped; see certainReject.
			var u float64
			drawn := false
			if bnd != nil {
				lb, err := bnd.SwapBound(occ, ta, tb)
				if err != nil {
					return nil, err
				}
				if lb > cost {
					u, drawn = rng.Float64(), true
					if certainReject(lb-cost, temp, u) {
						res.Evaluations++
						res.BoundSkips++
						rejected++
						continue
					}
				}
			}
			c, d, err := price(ta, tb)
			if err != nil {
				return nil, err
			}
			countEval()
			if d > 0 && !drawn {
				u = rng.Float64()
			}
			if d <= 0 || u < math.Exp(-d/temp) {
				if err := accept(ta, tb, c); err != nil {
					return nil, err
				}
				accepted++
				if cost < res.BestCost {
					res.BestCost = cost
					copy(res.Best, cur)
					res.Improvements++
					improvedThisStep = true
				}
			} else {
				rejected++
			}
		}
		if improvedThisStep {
			stalled = 0
		} else {
			stalled++
		}
		temp *= alpha
		if a.OnProgress != nil {
			a.OnProgress(Progress{Engine: "SA", Step: step + 1, Steps: steps,
				Evaluations: res.Evaluations, ExactEvals: res.ExactEvals,
				BoundSkips: res.BoundSkips, SurrogateEvals: res.SurrogateEvals,
				Accepted: accepted, Rejected: rejected,
				BestCost: res.BestCost})
		}
	}
	if useDelta || useSurr {
		if err := repriceBest(a.Problem.Obj, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// certainReject reports whether the Metropolis test u < exp(−d/temp) is
// certain to fail for every exact delta d ≥ dlb, where dlb = lb − cost > 0
// comes from a certified lower bound lb ≤ c on the candidate's exact cost
// c. The float argument: d = c − cost ≥ lb − cost = dlb because float
// subtraction is monotone in its first operand, and −d/temp ≤ −dlb/temp
// because division by a positive temp is monotone and negation is exact.
// math.Exp is monotone up to rounding below one ulp (2⁻⁵²); u is 0 or at
// least 2⁻⁵³, so the comparison only matters where exp is a normal float,
// and the 1e-9 relative slack covers any such non-monotonicity many times
// over. Hence exp(−d/temp) ≤ exp(−dlb/temp)·(1+1e-9) < u, and the exact
// walk would reject too. At temp → 0 exp underflows to 0 and every u > 0
// rejects, exactly as the exact test does; u == 0 never skips (0 < 0 is
// false), so a move the exact test could still accept is always priced.
//
//nocvet:noalloc
func certainReject(dlb, temp, u float64) bool {
	return math.Exp(-dlb/temp)*(1+1e-9) < u
}
