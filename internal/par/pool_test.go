package par

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEverything(t *testing.T) {
	p := NewPool(4, 128)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		if !p.TrySubmit(func() { n.Add(1) }) {
			t.Fatalf("submit %d refused", i)
		}
	}
	p.Close()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
}

func TestPoolBackpressureAndClose(t *testing.T) {
	p := NewPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	if !p.TrySubmit(func() { close(started); <-block }) {
		t.Fatal("first submit refused")
	}
	<-started // the worker is now busy; the queue is empty
	if !p.TrySubmit(func() {}) {
		t.Fatal("queued submit refused")
	}
	// Worker busy + queue full: backpressure must refuse, not block.
	if p.TrySubmit(func() {}) {
		t.Fatal("overfull queue accepted a task")
	}
	if p.Queued() != 1 {
		t.Fatalf("queued=%d, want 1", p.Queued())
	}
	close(block)
	p.Close() // drains the queued task
	if p.TrySubmit(func() {}) {
		t.Fatal("closed pool accepted a task")
	}
	p.Close() // idempotent
}

func TestForEachCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEachCtx(ctx, 10, 4, func(int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran under a pre-canceled ctx", ran.Load())
	}
}

func TestForEachCtxSerialStopsAtCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	err := ForEachCtx(ctx, 100, 1, func(i int) error {
		ran++
		if i == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 4 {
		t.Fatalf("ran %d tasks, want exactly 4 (cancel after index 3)", ran)
	}
}

func TestForEachCtxParallelSkipsAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	ran := 0
	gate := make(chan struct{})
	err := ForEachCtx(ctx, 1000, 2, func(i int) error {
		if i == 0 {
			cancel()
			close(gate)
		} else {
			<-gate // no task outruns the cancellation
		}
		mu.Lock()
		ran++
		mu.Unlock()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran >= 1000 {
		t.Fatalf("cancellation skipped nothing (%d ran)", ran)
	}
}

func TestForEachCtxTaskErrorBeatsCtxError(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	err := ForEachCtx(ctx, 10, 2, func(i int) error {
		if i == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want task error to win", err)
	}
}

// TestForEachCtxNilCtxMatchesForEach: a nil ctx runs every task, as a
// context that is never canceled does.
func TestForEachCtxNilCtxMatchesForEach(t *testing.T) {
	var a, b atomic.Int64
	if err := ForEachCtx(context.Background(), 50, 4, func(int) error { a.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEachCtx(nil, 50, 4, func(int) error { b.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if a.Load() != 50 || b.Load() != 50 {
		t.Fatalf("nil-ctx variant ran %d tasks, never-canceled ctx ran %d, want 50", b.Load(), a.Load())
	}
}
