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
	cur, err := startMapping(rng, a.Initial, a.Problem.NumCores, numTiles)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	var inc incumbent
	cost, err := inc.bind(a.Problem.Obj, res, cur, numTiles, true)
	if err != nil {
		return nil, err
	}
	res.Best, res.BestCost, res.InitialCost = cur.Clone(), cost, cost

	w := metropolis{engine: "SA", rng: rng, cur: inc.cur, occ: inc.occ, res: res, onProgress: a.OnProgress}
	// Certified Metropolis rejection (see CutoffObjective): a walk on the
	// full path whose exact tier holds bounds certifies each move against
	// the walk's variate before any exact work.
	var reject func(lb float64) bool
	if inc.below != nil {
		reject = func(lb float64) bool { return w.certify(lb - inc.cost) }
	}
	w.price = func(ta, tb topology.TileID, certify bool) (float64, float64, bool, error) {
		if certify {
			return inc.price(ta, tb, reject)
		}
		return inc.price(ta, tb, nil)
	}
	w.accept = func(ta, tb topology.TileID, c float64) (bool, error) {
		if err := inc.adopt("SA", ta, tb, c); err != nil {
			return false, err
		}
		if inc.cost < res.BestCost {
			res.BestCost = inc.cost
			copy(res.Best, inc.cur)
			res.Improvements++
			return true, nil
		}
		return false, nil
	}
	w.reheat = func() (err error) {
		res.BestCost, err = inc.moveTo(res.Best, res.BestCost)
		return err
	}
	if err := w.run(a.Ctx, schedule{a.InitialTemp, a.Alpha, a.MovesPerTemp, a.TempSteps,
		a.StallSteps, a.Reheats}, cost); err != nil {
		return nil, err
	}
	if err := inc.finish(res); err != nil {
		return nil, err
	}
	return res, nil
}
