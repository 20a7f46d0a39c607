package search

import "context"

// Progress is a periodic snapshot of a running search, delivered through
// an engine's OnProgress callback. It is observational only: emitting it
// never touches the walk's RNG or incumbent state, so a run with a
// callback is bit-identical to one without.
type Progress struct {
	// Engine names the emitting engine ("SA", "ES", "random", "hill",
	// "tabu", "pareto").
	Engine string
	// Restart is the restart index (MultiAnnealer), shard index
	// (ShardedExhaustive; 0 under a Limit) or walk index (ParetoSA) the
	// snapshot belongs to; 0 for serial engines.
	Restart int
	// Step / Steps report outer-loop progress in engine-specific units:
	// temperature steps for SA and pareto, iterations for tabu, samples
	// for random search, restarts for hill climbing. Steps is 0 when the
	// total is unknown up front (exhaustive enumeration).
	Step, Steps int
	// Evaluations counts candidate pricings so far in this run (for the
	// parallel engines: in this restart/shard), whatever tier priced
	// them; Evaluations == ExactEvals + BoundSkips + SurrogateEvals.
	Evaluations int64
	// ExactEvals counts pricings that ran the exact objective;
	// BoundSkips counts candidates the tier-A certified lower bound
	// dismissed without an exact pricing; SurrogateEvals counts
	// candidates priced by the tier-B calibrated surrogate. Runs without
	// tiers report ExactEvals == Evaluations and zeros elsewhere. Each
	// counter is monotone over a run, like Evaluations.
	ExactEvals, BoundSkips, SurrogateEvals int64
	// Accepted / Rejected count the walk's move decisions so far. For
	// the move-based engines (SA, hill, tabu, pareto) an accepted move
	// is one applied to the walk state and a rejected one is a priced
	// candidate that was not applied (SA's calibration probes count as
	// neither). The enumerating engines (ES, random) have no move
	// decision; they report incumbent improvements as Accepted and the
	// remaining evaluations as Rejected, so acceptance-rate telemetry is
	// meaningful for every engine.
	Accepted, Rejected int64
	// BestCost is the incumbent best objective value.
	BestCost float64
}

// ProgressFunc receives Progress snapshots. The parallel engines
// (MultiAnnealer, ShardedExhaustive, ParetoSA) invoke it concurrently
// from their worker lanes, so implementations must be safe for
// concurrent use; they must also not block for long (they run on the
// search hot path) and must not mutate engine state.
type ProgressFunc func(Progress)

// progress snapshots res's evaluation counters for an OnProgress
// callback.
func (res *Result) progress(engine string, restart, step, steps int, accepted, rejected int64, best float64) Progress {
	return Progress{Engine: engine, Restart: restart, Step: step, Steps: steps, Evaluations: res.Evaluations,
		ExactEvals: res.ExactEvals, BoundSkips: res.BoundSkips, SurrogateEvals: res.SurrogateEvals,
		Accepted: accepted, Rejected: rejected, BestCost: best}
}

// pollEvery is the number of objective evaluations the inner loops let
// elapse between cancellation checks: rare enough to stay invisible on
// the ~100ns incremental-evaluation path, frequent enough that a
// cancelled CDCM run (milliseconds per evaluation) stops promptly.
const pollEvery = 64

// pollCtx reports whether a run should stop: nil when ctx is nil (the
// engines' default, bit-identical to the pre-cancellation behaviour) or
// not yet done, ctx.Err() otherwise.
func pollCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// pollAt is pollCtx at the engines' cadence: it checks ctx only when the
// evaluation count evals is a multiple of pollEvery.
func pollAt(ctx context.Context, evals int64) error {
	if ctx == nil || evals%pollEvery != 0 {
		return nil
	}
	return ctx.Err()
}
