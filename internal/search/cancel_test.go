package search

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mapping"
)

// runner abstracts the engines for the cancellation table tests.
type runner interface {
	Run() (*Result, error)
}

// engines builds one of every engine over the same problem, context and
// progress sink.
func engines(p Problem, ctx context.Context, prog ProgressFunc) map[string]runner {
	return map[string]runner{
		"annealer": &Annealer{Problem: p, Seed: 1, TempSteps: 40, Ctx: ctx, OnProgress: prog},
		"hill":     &HillClimber{Problem: p, Seed: 1, Ctx: ctx, OnProgress: prog},
		"tabu":     &Tabu{Problem: p, Seed: 1, Iterations: 40, Ctx: ctx, OnProgress: prog},
		"random":   &RandomSearch{Problem: p, Seed: 1, Samples: 500, Ctx: ctx, OnProgress: prog},
		"es":       &ShardedExhaustive{Problem: p, Limit: 1 << 40, Ctx: ctx, OnProgress: prog},
		"multi": &MultiAnnealer{Base: Annealer{Problem: p, Seed: 1, TempSteps: 40,
			Ctx: ctx, OnProgress: prog}, Restarts: 2, Workers: 2},
		"sharded": &ShardedExhaustive{Problem: p, Workers: 2, Ctx: ctx, OnProgress: prog},
	}
}

func TestEnginesReturnErrOnPreCanceledContext(t *testing.T) {
	p, _ := testProblem(t, 3, 2, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, eng := range engines(p, ctx, nil) {
		if _, err := eng.Run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-canceled ctx returned %v, want context.Canceled", name, err)
		}
	}
}

func TestEnginesCancelMidRun(t *testing.T) {
	// The objective itself trips the cancellation after a few calls; each
	// engine must notice at its next poll and abort with ctx.Err() instead
	// of finishing its budget.
	p, base := testProblem(t, 3, 3, 6)
	for name := range engines(p, nil, nil) {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		tripping := ObjectiveFunc(func(mp mapping.Mapping) (float64, error) {
			if calls.Add(1) == 100 {
				cancel()
			}
			return base.Cost(mp)
		})
		tp := p
		tp.Obj = tripping
		eng := engines(tp, ctx, nil)[name]
		if _, err := eng.Run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: mid-run cancel returned %v, want context.Canceled", name, err)
		}
		if n := calls.Load(); n > 100+8*pollEvery {
			t.Errorf("%s: kept evaluating after cancel: %d calls", name, n)
		}
		cancel()
	}
}

func TestBackgroundContextBitIdenticalToNil(t *testing.T) {
	// The cancellation plumbing must be pure overhead: a run under a live
	// context returns exactly the nil-context result.
	p, _ := testProblem(t, 3, 3, 6)
	for name := range engines(p, nil, nil) {
		plain, err := engines(p, nil, nil)[name].Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ctxed, err := engines(p, context.Background(), nil)[name].Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if plain.BestCost != ctxed.BestCost || plain.Evaluations != ctxed.Evaluations ||
			plain.InitialCost != ctxed.InitialCost || !mapping.Equal(plain.Best, ctxed.Best) {
			t.Errorf("%s: context changed the walk: %+v vs %+v", name, plain, ctxed)
		}
	}
}

func TestProgressSnapshotsObserveTheWalk(t *testing.T) {
	p, _ := testProblem(t, 3, 2, 4)
	var mu sync.Mutex
	byEngine := map[string][]Progress{}
	prog := func(pr Progress) {
		mu.Lock()
		byEngine[pr.Engine] = append(byEngine[pr.Engine], pr)
		mu.Unlock()
	}
	for name, eng := range engines(p, nil, prog) {
		if _, err := eng.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, engine := range []string{"SA", "hill", "tabu", "random"} {
		snaps := byEngine[engine]
		if len(snaps) == 0 {
			t.Errorf("engine %s emitted no progress", engine)
			continue
		}
		last := snaps[len(snaps)-1]
		if last.Evaluations <= 0 || last.BestCost <= 0 {
			t.Errorf("engine %s: implausible snapshot %+v", engine, last)
		}
	}
	// The multi-restart annealer labels snapshots with their restart
	// index; with 2 restarts both labels must appear.
	restarts := map[int]bool{}
	for _, pr := range byEngine["SA"] {
		restarts[pr.Restart] = true
	}
	if !restarts[0] || !restarts[1] {
		t.Errorf("MultiAnnealer restart labels missing: %v", restarts)
	}
}
