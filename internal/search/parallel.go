package search

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/mapping"
	"repro/internal/par"
	"repro/internal/topology"
)

// ObjectiveFactory builds one objective instance per worker goroutine.
// The core evaluators are stateful (the CWM route cache and incremental
// DeltaObjective binding, the CDCM wormhole simulator) and therefore not
// safe for concurrent use; the parallel engines call the factory once per
// worker lane instead of sharing Problem.Obj. A nil factory falls back to
// the shared objective, which is only correct when that objective is
// concurrency-safe (e.g. a pure ObjectiveFunc) — in particular a shared
// DeltaObjective would race on its bound mapping. Each lane's instance
// takes the same engine-internal fast path (DeltaObjective or full Cost)
// as a serial run would, so the worker count never changes results.
type ObjectiveFactory func() (Objective, error)

// runLanes runs job(obj, i) for every i in [0, n) over a bounded pool of
// min(workers, n) lanes, each pricing with its own objective: factory's,
// or p.Obj for every lane when factory is nil. All lane objectives are
// semantically identical evaluators, so which lane runs which job cannot
// affect results. p, with the first lane's objective, is validated
// before any job runs; ctx cancels dispatch, and a job that panics
// re-panics on the calling goroutine, as in par.ForEachWorkerCtx.
func runLanes(ctx context.Context, p Problem, factory ObjectiveFactory, n, workers int,
	job func(obj Objective, i int) error) error {
	workers = par.Workers(workers)
	objs := make([]Objective, max(min(workers, n), 1))
	for i := range objs {
		objs[i] = p.Obj
		if factory != nil {
			var err error
			if objs[i], err = factory(); err != nil {
				return err
			}
		}
	}
	p.Obj = objs[0]
	if err := p.validate(); err != nil {
		return err
	}
	return par.ForEachWorkerCtx(ctx, n, workers, func(w, i int) error { return job(objs[w], i) })
}

// MultiAnnealer runs N independent annealing restarts and keeps the best
// result. Restart i derives its seed deterministically from the base run
// (Base.Seed + i), restarts are distributed over a bounded worker pool,
// and the winner is chosen by lowest cost with the lowest restart index
// breaking ties — so for a fixed Base.Seed and Restarts the outcome is
// bit-identical for every Workers value, including Workers == 1.
type MultiAnnealer struct {
	// Base configures every restart; restart i runs Base with
	// Seed = Base.Seed + int64(i).
	Base Annealer
	// Restarts is the number of independent annealing runs (0 = 1).
	// Results depend on Restarts but never on Workers.
	Restarts int
	// Workers bounds the number of concurrent restarts (0 = 1).
	Workers int
	// NewObjective supplies a private objective per worker lane; see
	// ObjectiveFactory. When nil, all restarts share Base.Problem.Obj.
	NewObjective ObjectiveFactory
}

// Run executes the restarts and merges their results. Cancellation and
// progress reporting are configured on Base: Base.Ctx cancels every
// restart (running restarts stop at their next poll, queued restarts are
// never dispatched), and Base.OnProgress receives each restart's
// snapshots with Restart set to the restart index — concurrently when
// Workers > 1, so the callback must be safe for concurrent use.
func (m *MultiAnnealer) Run() (*Result, error) {
	restarts := m.Restarts
	if restarts == 0 {
		restarts = 1
	}
	if restarts < 0 {
		return nil, fmt.Errorf("search: %d restarts", restarts)
	}
	results := make([]*Result, restarts)
	err := runLanes(m.Base.Ctx, m.Base.Problem, m.NewObjective, restarts, m.Workers, func(obj Objective, i int) error {
		a := m.Base // copy: each restart mutates only its own Annealer
		a.Seed = m.Base.Seed + int64(i)
		a.Problem.Obj = obj
		if base := m.Base.OnProgress; base != nil {
			a.OnProgress = func(p Progress) {
				p.Restart = i
				base(p)
			}
		}
		res, err := a.Run()
		if err != nil {
			return fmt.Errorf("search: restart %d: %w", i, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeRestarts(results), nil
}

// mergeRestarts folds per-restart results into the reported Result: the
// winner's mapping and cost, with Evaluations and Improvements summed
// across restarts (they are real objective calls and real incumbent
// improvements, and the sums are scheduling-independent). InitialCost is
// restart 0's, matching the single-run engine's meaning of "the starting
// point of the base seed".
func mergeRestarts(results []*Result) *Result {
	win := 0
	for i := 1; i < len(results); i++ {
		if results[i].BestCost < results[win].BestCost {
			win = i
		}
	}
	merged := &Result{
		Best:        results[win].Best,
		BestCost:    results[win].BestCost,
		InitialCost: results[0].InitialCost,
	}
	for _, r := range results {
		merged.add(r)
	}
	return merged
}

// add sums r's evaluation counters and Improvements into res — the
// scheduling-independent totals every parallel engine reports.
func (res *Result) add(r *Result) {
	res.Evaluations += r.Evaluations
	res.ExactEvals += r.ExactEvals
	res.BoundSkips += r.BoundSkips
	res.SurrogateEvals += r.SurrogateEvals
	res.Improvements += r.Improvements
}

// ShardedExhaustive enumerates every injective placement and certifies
// the global optimum. Only feasible on small NoCs — the space is
// m!/(m-n)! — which is exactly how the paper uses it ("for small NoC
// sizes both ES and SA reached the same results").
//
// The enumeration is partitioned by the tile assigned to core 0: one
// shard per candidate first tile, shards spread over a bounded worker
// pool, results merged in ascending tile order with a strict-improvement
// rule. The merged Best, BestCost, Evaluations and Certified equal those
// of one in-order enumeration for every Workers value, because that
// enumeration visits first tiles in exactly this ascending order and
// keeps the first of equal-cost optima. The sharded path runs even at
// Workers == 1 (shards just execute in order on one goroutine), so every
// reported field — including the shard-local Improvements sum — is
// independent of the worker count.
type ShardedExhaustive struct {
	Problem Problem
	// Anchor, when true, pins core 0 to the canonical mesh quadrant,
	// exploiting mirror symmetry to shrink the space up to 4x: out-of-
	// quadrant shards are simply not spawned. The optimum cost is
	// unaffected as long as the objective is symmetry-invariant, which
	// holds for both CWM and CDCM on a mesh.
	Anchor bool
	// Limit bounds the total number of evaluated placements (0 = none;
	// negative is an error).
	// A non-zero limit runs one in-order enumeration on one objective —
	// the limit is a global early-exit whose cut point depends on
	// enumeration order, and replicating it shard-locally would change
	// which placements are seen. If it fires, the result is the
	// best-so-far, Improvements counts global improvements and Certified
	// stays false.
	Limit int64
	// Workers bounds shard concurrency (0 = 1).
	Workers int
	// NewObjective supplies a private objective per worker lane; see
	// ObjectiveFactory. When nil, shards share Problem.Obj.
	NewObjective ObjectiveFactory
	// Ctx, when non-nil, cancels the enumeration: running shards stop at
	// their next poll, queued shards are never dispatched, and Run
	// returns ctx.Err(). Nil is bit-identical to the historical
	// behaviour.
	Ctx context.Context
	// OnProgress, when non-nil, receives a snapshot every few thousand
	// placements with Restart set to the shard index (0 on the Limit
	// path) — concurrently when Workers > 1, so the callback must be
	// safe for concurrent use. Steps is 0: the space size is not
	// precomputed.
	OnProgress ProgressFunc
}

// Run enumerates the space.
func (s *ShardedExhaustive) Run() (*Result, error) {
	if s.Problem.Mesh == nil {
		return nil, errors.New("search: nil mesh")
	}
	if s.Limit < 0 {
		return nil, fmt.Errorf("search: negative exhaustive limit %d", s.Limit)
	}
	// One job per first tile of core 0, or one in-order enumeration
	// under a limit.
	var jobs []mapping.EnumerateOptions
	mesh := s.Problem.Mesh
	for t := 0; s.Limit == 0 && t < mesh.NumTiles(); t++ {
		// The symmetry anchor's quadrant rule is EnumerateOptions.AnchorCore's.
		if !s.Anchor || mapping.InAnchorQuadrant(mesh, topology.TileID(t)) {
			jobs = append(jobs, mapping.EnumerateOptions{AnchorCore: -1, PinFirst: true, FirstTile: topology.TileID(t)})
		}
	}
	if s.Limit > 0 {
		anchor := -1
		if s.Anchor {
			anchor = 0
		}
		jobs = append(jobs, mapping.EnumerateOptions{Limit: s.Limit, AnchorCore: anchor})
	}
	shards := make([]*Result, len(jobs))
	err := runLanes(s.Ctx, s.Problem, s.NewObjective, len(jobs), s.Workers, func(obj Objective, i int) (err error) {
		shards[i], err = s.enumerate(obj, i, jobs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return mergeShards(shards), nil
}

// enumerate prices every placement opts admits, in enumeration order,
// keeping the first of equal-cost optima. Certified reports whether the
// enumeration ran to completion; restart labels progress snapshots.
func (s *ShardedExhaustive) enumerate(obj Objective, restart int, opts mapping.EnumerateOptions) (*Result, error) {
	res := &Result{BestCost: math.Inf(1)}
	var innerErr error
	err := mapping.Enumerate(s.Problem.Mesh, s.Problem.NumCores, opts, func(m mapping.Mapping) bool {
		if innerErr = pollAt(s.Ctx, res.Evaluations); innerErr != nil {
			return false
		}
		c, err := obj.Cost(m)
		if err != nil {
			innerErr = err
			return false
		}
		res.Evaluations++
		res.ExactEvals++
		if res.Evaluations == 1 {
			res.InitialCost = c
		}
		if s.OnProgress != nil && res.Evaluations%4096 == 0 {
			s.OnProgress(res.progress("ES", restart, 0, 0,
				res.Improvements, res.Evaluations-res.Improvements, res.BestCost))
		}
		if c < res.BestCost {
			res.BestCost = c
			res.Best = m.Clone()
			res.Improvements++
		}
		return true
	})
	switch {
	case innerErr != nil:
		return nil, innerErr
	case err == mapping.ErrLimit:
		return res, nil
	case err != nil:
		return nil, err
	}
	res.Certified = true
	return res, nil
}

// mergeShards folds per-shard results in ascending first-tile order. The
// strict < mirrors each shard's incumbent rule, so equal-cost optima
// resolve to the one an in-order enumeration would have found first.
// Improvements sums shard-local improvement counts (a per-shard
// quantity; a global count depends on an interleaving that sharding
// removes). InitialCost is the first shard's first placement — also the
// first placement of the in-order enumeration. The merge is certified
// when every shard ran to completion; a limited run is one shard.
func mergeShards(shards []*Result) *Result {
	merged := &Result{BestCost: math.Inf(1), Certified: true}
	for i, r := range shards {
		merged.add(r)
		merged.Certified = merged.Certified && r.Certified
		if i == 0 {
			merged.InitialCost = r.InitialCost
		}
		if r.Best != nil && r.BestCost < merged.BestCost {
			merged.BestCost = r.BestCost
			merged.Best = r.Best
		}
	}
	return merged
}
