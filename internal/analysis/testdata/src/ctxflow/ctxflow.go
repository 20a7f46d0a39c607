// Package ctxflow is loaded under the impersonated path
// repro/internal/search/fixture, so the entry-point and send rules
// apply as they do in the real engine packages.
package ctxflow

import (
	"context"

	"repro/internal/par"
)

// Engine carries no context: its Run is a violation.
type Engine struct {
	Steps int
}

// Run is an exported entry point with no way to reach a context.
func (e *Engine) Run() error { // want `entry point Run has no context seam`
	return nil
}

// CtxEngine threads its context through a struct field — the repo's
// Annealer idiom — which counts as a seam.
type CtxEngine struct {
	Ctx context.Context
}

// Run reaches the context through the receiver.
func (e *CtxEngine) Run() error {
	return nil
}

// Explore takes the context as a parameter: also a seam.
func Explore(ctx context.Context, steps int) error {
	return par.ForEachCtx(ctx, steps, 2, func(i int) error { return nil })
}

// badSend blocks on a send the context cannot interrupt.
func badSend(ctx context.Context, ch chan int, v int) {
	ch <- v // want `blocking send while a context.Context is in scope`
}

// goodSelectSend can always take the ctx.Done arm.
func goodSelectSend(ctx context.Context, ch chan int, v int) {
	select {
	case ch <- v:
	case <-ctx.Done():
	}
}

// goodNilCtxSend sends only on the documented uncancellable path.
func goodNilCtxSend(ctx context.Context, ch chan int, v int) {
	if ctx == nil {
		ch <- v
		return
	}
	select {
	case ch <- v:
	case <-ctx.Done():
	}
}
