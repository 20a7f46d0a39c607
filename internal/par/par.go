// Package par provides the minimal deterministic fan-out primitive shared
// by the parallel exploration paths: a bounded worker pool over an indexed
// job set. Determinism is the design constraint — callers store results by
// job index and merge in index order, so the observable outcome is
// independent of the worker count and of goroutine scheduling.
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers normalises a worker-count option: values < 1 mean "one worker"
// (serial execution), everything else is returned unchanged. Callers that
// want hardware-sized pools pass runtime.NumCPU() explicitly (the CLIs'
// -workers default).
func Workers(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// DefaultWorkers is the CLI-facing default: one worker per logical CPU.
func DefaultWorkers() int { return runtime.NumCPU() }

// ForEachCtx runs task(0..n-1) on up to `workers` goroutines and waits
// for completion. Dispatch is in index order and stops once any task has
// failed (higher-index tasks not yet dispatched are skipped, so a failing
// batch doesn't grind through the rest of its jobs); every task below the
// first failing index is guaranteed to have run, which makes the returned
// lowest-index error deterministic under any scheduling. workers <= 1
// degenerates to a plain loop on the calling goroutine (no goroutines
// spawned), so the serial path stays trivially debuggable.
//
// Once ctx is done, tasks not yet dispatched are skipped and the call
// returns — the lowest-index task error if one exists (tasks that poll
// ctx themselves typically surface ctx.Err() that way), ctx.Err()
// otherwise. A nil ctx never cancels and pays no select: the
// uncancellable behaviour, exactly.
func ForEachCtx(ctx context.Context, n, workers int, task func(i int) error) error {
	return ForEachWorkerCtx(ctx, n, workers, func(_, i int) error { return task(i) })
}

// ForEachWorkerCtx is ForEachCtx with the pool lane exposed: task(w, i)
// runs job i on worker goroutine w, where w is in [0, min(workers, n)).
// A given w is never concurrent with itself, so callers can hand each
// worker a private instance of non-concurrency-safe state (the search
// engines allocate one objective evaluator per worker this way). Which
// worker runs which job is scheduling-dependent — determinism of the
// overall computation must come from the per-worker state being
// semantically identical across lanes. Errors and cancellation follow
// ForEachCtx's rules.
//
// A task that panics on a worker goroutine does not end the process:
// the worker recovers it, dispatch stops as after an error, and once
// every worker has returned the call re-panics on the calling goroutine
// with a *Panic holding the lowest-index panic value and its worker's
// stack — where the caller's own recover can see it. (On the serial
// path a task already panics on the calling goroutine.)
func ForEachWorkerCtx(ctx context.Context, n, workers int, task func(worker, i int) error) error {
	if n <= 0 {
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := task(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	panics := make([]*Panic, n)
	var failed atomic.Bool
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := range next {
				if err := runTask(task, w, i, &panics[i]); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}(w)
	}
	ctxErr := dispatch(ctx, n, next, &failed)
	close(next)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctxErr
}

// Panic is the value ForEachWorkerCtx (and so ForEachCtx) re-panics with on the calling goroutine when a task panicked on a
// worker goroutine.
type Panic struct {
	// Value is what the task panicked with.
	Value any
	// Stack is the panicking worker goroutine's stack.
	Stack []byte
}

// Error reports the task's panic value.
func (p *Panic) Error() string { return fmt.Sprintf("par: task panicked: %v", p.Value) }

// errPanicked marks a task that panicked, so dispatch stops as it does
// after a task error.
var errPanicked = errors.New("par: task panicked")

// runTask runs task(w, i) and turns a panic into errPanicked, recording
// the panic value and stack in *p.
func runTask(task func(worker, i int) error, w, i int, p **Panic) (err error) {
	defer func() {
		if v := recover(); v != nil {
			*p = &Panic{Value: v, Stack: debug.Stack()}
			err = errPanicked
		}
	}()
	return task(w, i)
}

// dispatch feeds job indices in order until all are sent, a task has
// failed, or ctx is done; it returns ctx's error in the last case. Kept
// out of ForEachWorkerCtx so the nil-ctx path pays no select.
func dispatch(ctx context.Context, n int, next chan<- int, failed *atomic.Bool) error {
	if ctx == nil {
		for i := 0; i < n && !failed.Load(); i++ {
			next <- i
		}
		return nil
	}
	done := ctx.Done()
	// The Err check comes first: select picks at random among ready
	// cases, so a done ctx alone would still let some sends through.
	for i := 0; i < n && !failed.Load() && ctx.Err() == nil; i++ {
		select {
		case next <- i:
		case <-done:
			return ctx.Err()
		}
	}
	return ctx.Err()
}
