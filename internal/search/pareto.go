package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mapping"
	"repro/internal/topology"
)

// ParetoSA approximates the Pareto front of a VectorObjective with
// archived, weight-swept simulated annealing: Walks independent SA walks
// run concurrently, each optimising a different scalarisation of the
// component vector, and every evaluated candidate — accepted or not — is
// offered to a per-walk dominance archive. The per-walk archives merge in
// walk order into the returned front.
//
// The first K walks (K = number of axes) optimise one pure axis each, so
// the front always probes the extremes; later walks draw their weight
// vector from the walk RNG, filling in the middle. Components are
// normalised by the walk's starting point before weighting, so axes with
// picojoule and kilocycle magnitudes trade off on comparable scales.
//
// Determinism follows the MultiAnnealer idiom: walk i seeds its RNG with
// Seed+i, walks are distributed over a bounded worker pool with one
// objective instance per worker lane, and both the per-walk archives and
// the merge are order-independent for equal component vectors (see
// Archive) — so for a fixed Seed and Walks the front is bit-identical
// for every Workers value, including Workers == 1.
type ParetoSA struct {
	// Problem describes the instance. Problem.Obj must implement
	// VectorObjective (as must every objective built by NewObjective).
	Problem Problem
	// Seed makes the run reproducible; walk i uses Seed + int64(i).
	Seed int64
	// Initial, when non-nil, replaces walk 0's random starting mapping —
	// the warm-start seam (mapping.SeedGreedy plugs in here). Other walks
	// keep random starts for diversity.
	Initial mapping.Mapping
	// InitialTemp, Alpha, MovesPerTemp, TempSteps and StallSteps tune
	// each walk's annealing schedule exactly as on Annealer (zero values
	// take the same defaults). Walks do not reheat: escaping a basin is
	// the job of the other walks' different scalarisations.
	InitialTemp  float64
	Alpha        float64
	MovesPerTemp int
	TempSteps    int
	StallSteps   int
	// Walks is the number of independent weight-swept walks (0 = one per
	// axis plus four interior weightings). Results depend on Walks but
	// never on Workers.
	Walks int
	// FrontSize bounds the returned front and each walk's archive;
	// overflow evicts the most crowded point (0 = DefaultFrontSize).
	FrontSize int
	// Workers bounds the number of concurrent walks (0 = 1).
	Workers int
	// NewObjective supplies a private objective per worker lane; see
	// ObjectiveFactory. Required when the objective is stateful (both
	// core evaluators are). Each built objective must implement
	// VectorObjective.
	NewObjective ObjectiveFactory
	// Ctx, when non-nil, makes the run cancellable exactly like
	// Annealer.Ctx; the nil path is bit-identical.
	Ctx context.Context
	// OnProgress, when non-nil, receives per-walk snapshots with Restart
	// set to the walk index and BestCost to the walk's best scalar
	// collapse — concurrently when Workers > 1, so the callback must be
	// safe for concurrent use.
	OnProgress ProgressFunc
}

// DefaultFrontSize bounds the front when ParetoSA.FrontSize is zero:
// large enough to resolve the energy×latency trade-off curves of the
// paper's instances, small enough that crowding pruning keeps archive
// maintenance off the critical path.
const DefaultFrontSize = 32

// paretoWalk is one walk's contribution, merged in walk order: its
// archive, plus its evaluation counters, archive insertions and starting
// cost in res (whose BestCost is the walk's best exact collapse).
type paretoWalk struct {
	archive *Archive
	res     Result
}

// vectorObjective extracts the VectorObjective view of obj, which the
// front engine requires.
func vectorObjective(obj Objective) (VectorObjective, error) {
	v, ok := obj.(VectorObjective)
	if !ok {
		return nil, fmt.Errorf("search: pareto engine needs a VectorObjective, got %T", obj)
	}
	return v, nil
}

// Run executes the walks and merges their archives into the front.
func (e *ParetoSA) Run() (*FrontResult, error) {
	if err := e.Problem.validate(); err != nil {
		return nil, err
	}
	if err := pollCtx(e.Ctx); err != nil {
		return nil, err
	}
	shared, err := vectorObjective(exactOf(e.Problem.Obj))
	if err != nil {
		return nil, err
	}
	axes := shared.Axes()
	k := len(axes)
	if k == 0 {
		return nil, fmt.Errorf("search: vector objective reports no axes")
	}
	walks := e.Walks
	if walks == 0 {
		walks = k + 4
	}
	if walks < 0 {
		return nil, fmt.Errorf("search: %d walks", walks)
	}
	frontSize := e.FrontSize
	if frontSize == 0 {
		frontSize = DefaultFrontSize
	}
	if frontSize < 0 {
		return nil, fmt.Errorf("search: front size %d", frontSize)
	}
	results := make([]*paretoWalk, walks)
	err = runLanes(e.Ctx, e.Problem, e.NewObjective, walks, e.Workers, func(obj Objective, i int) error {
		res, err := e.walk(i, obj, k, frontSize)
		if err != nil {
			return fmt.Errorf("search: pareto walk %d: %w", i, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	var sum Result
	merged := NewArchive(frontSize)
	for _, r := range results {
		sum.add(&r.res)
		for _, p := range r.archive.Points() {
			merged.OfferPoint(p)
		}
	}
	return &FrontResult{Axes: axes, Weights: shared.CollapseWeights(), Points: merged.Points(),
		InitialCost: results[0].res.InitialCost, Evaluations: sum.Evaluations, ExactEvals: sum.ExactEvals,
		SurrogateEvals: sum.SurrogateEvals, Improvements: sum.Improvements}, nil
}

// walkWeights returns walk i's scalarisation weights over k axes: pure
// axis weights for the first k walks, then normalised draws from the
// walk RNG. The draws happen before the walk touches the RNG for
// anything else, so a walk's weights depend only on (Seed, i, k).
func walkWeights(rng *rand.Rand, i, k int) []float64 {
	w := make([]float64, k)
	if i < k {
		w[i] = 1
		return w
	}
	var sum float64
	for ax := range w {
		// 1-Float64 is in (0,1]: no all-zero vector, every axis retains
		// at least infinitesimal pressure.
		w[ax] = 1 - rng.Float64()
		sum += w[ax]
	}
	for ax := range w {
		w[ax] /= sum
	}
	return w
}

// walk runs one weight-swept annealing walk on the lane objective lane,
// offering every evaluated candidate to a fresh archive.
func (e *ParetoSA) walk(i int, lane Objective, k, frontSize int) (*paretoWalk, error) {
	obj, err := vectorObjective(exactOf(lane))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.Seed + int64(i)))
	weights := walkWeights(rng, i, k)
	collapse := obj.CollapseWeights()
	numTiles := e.Problem.Mesh.NumTiles()
	initial := e.Initial
	if i != 0 {
		initial = nil
	}
	cur, err := startMapping(rng, initial, e.Problem.NumCores, numTiles)
	if err != nil {
		return nil, err
	}
	occ := cur.Occupants(numTiles)

	// Tier-B surrogate (see TieredObjective): the Metropolis walk prices
	// candidates on the surrogate's vector view, and only accepted moves
	// pay an exact component pricing — which is also the only pricing
	// ever offered to the archive, so every front point is exact.
	sobj, useSurr := surrogateOf(lane).(VectorObjective)

	out := &paretoWalk{archive: NewArchive(frontSize)}
	res := &out.res
	comps := make([]float64, k)
	if err := obj.ComponentsInto(cur, comps); err != nil {
		return nil, err
	}
	res.Evaluations, res.ExactEvals = 1, 1
	res.InitialCost = Collapse(collapse, comps)
	res.BestCost = res.InitialCost

	// Normalise by the starting point so the axes trade off on comparable
	// scales whatever their units; a zero start component falls back to
	// the raw scale.
	norm := make([]float64, k)
	for ax := range norm {
		norm[ax] = math.Abs(comps[ax])
		if norm[ax] == 0 {
			norm[ax] = 1
		}
	}
	scalar := func(c []float64) float64 {
		var s float64
		for ax, w := range weights {
			s += w * c[ax] / norm[ax]
		}
		return s
	}

	// The walk's tracked scalar lives in whichever domain prices the
	// Metropolis candidates: exact components normally, surrogate
	// components under tier B (same norm — the surrogate approximates the
	// exact axes, so the starting-point scales transfer). The archive and
	// res.BestCost always see exact components only.
	scomps := comps
	if useSurr {
		scomps = make([]float64, k)
		if err := sobj.ComponentsInto(cur, scomps); err != nil {
			return nil, err
		}
	}
	cost := scalar(scomps)
	bestScalar := cost
	out.archive.Offer(cur, comps, res.InitialCost)

	w := metropolis{engine: "pareto", restart: i, rng: rng, cur: cur, occ: occ, res: res,
		onProgress: e.OnProgress}
	// price prices the swapped mapping on every axis, offers it to the
	// archive, and undoes the swap — the front engine has no incremental
	// path (components must be exact evaluator output, never accumulated
	// deltas). Under the tier-B surrogate, pricing runs on the
	// surrogate's vector view and nothing is offered here: only accepted
	// moves are exact-priced, and only exact components reach the archive.
	w.price = func(ta, tb topology.TileID, _ bool) (float64, float64, bool, error) {
		mapping.SwapTiles(cur, occ, ta, tb)
		res.Evaluations++
		var err error
		if useSurr {
			res.SurrogateEvals++
			err = sobj.ComponentsInto(cur, scomps)
		} else {
			res.ExactEvals++
			if err = obj.ComponentsInto(cur, comps); err == nil {
				out.archive.Offer(cur, comps, Collapse(collapse, comps))
			}
		}
		mapping.SwapTiles(cur, occ, ta, tb) // undo
		c := scalar(scomps)
		return c, c - cost, false, err
	}
	w.accept = func(ta, tb topology.TileID, c float64) (bool, error) {
		cost = c
		if useSurr {
			// Exact-reprice the adopted mapping: a surrogate mis-ranking
			// can pollute the walk path but never the reported front.
			if err := obj.ComponentsInto(cur, comps); err != nil {
				return false, err
			}
			res.Evaluations++
			res.ExactEvals++
			out.archive.Offer(cur, comps, Collapse(collapse, comps))
		}
		if cost < bestScalar {
			bestScalar = cost
			res.BestCost = Collapse(collapse, comps)
			return true, nil
		}
		return false, nil
	}
	// Walks do not reheat (Reheats stays 0), so w.reheat is never called.
	if err := w.run(e.Ctx, schedule{e.InitialTemp, e.Alpha, e.MovesPerTemp, e.TempSteps,
		e.StallSteps, 0}, cost); err != nil {
		return nil, err
	}
	res.Improvements = out.archive.Inserted()
	return out, nil
}
