package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEveryTask(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		var ran [50]int32
		err := ForEachCtx(nil, 50, workers, func(i int) error {
			atomic.AddInt32(&ran[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, n := range ran {
			if n != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		err := ForEachCtx(nil, 20, workers, func(i int) error {
			if i == 7 || i == 13 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 7 failed" {
			t.Fatalf("workers=%d: err = %v, want task 7's error", workers, err)
		}
	}
}

func TestForEachStopsDispatchAfterError(t *testing.T) {
	// Tasks below the failing index always run; tasks far above it must
	// not all be ground through once the failure is visible.
	var ran [200]int32
	boom := errors.New("boom")
	err := ForEachCtx(nil, 200, 2, func(i int) error {
		atomic.AddInt32(&ran[i], 1)
		if i == 3 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	for i := 0; i <= 3; i++ {
		if ran[i] != 1 {
			t.Fatalf("task %d below the failure did not run", i)
		}
	}
	var total int32
	for i := range ran {
		total += ran[i]
	}
	if total == 200 {
		t.Fatal("all 200 tasks ran despite an early failure")
	}
}

func TestForEachWorkerLaneBounds(t *testing.T) {
	// Worker ids must stay within [0, min(workers, n)) so callers can
	// index per-lane state safely.
	var bad int32
	err := ForEachWorkerCtx(nil, 40, 4, func(w, i int) error {
		if w < 0 || w >= 4 {
			atomic.AddInt32(&bad, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d tasks saw an out-of-range worker id", bad)
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEachCtx(nil, 0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestWorkers(t *testing.T) {
	cases := []struct{ in, want int }{{-3, 1}, {0, 1}, {1, 1}, {8, 8}}
	for _, c := range cases {
		if got := Workers(c.in); got != c.want {
			t.Errorf("Workers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if DefaultWorkers() < 1 {
		t.Error("DefaultWorkers < 1")
	}
}

// TestForEachWorkerCarriesPanicToCaller: a task panicking on a worker
// goroutine must not end the process. The caller recovers a *Panic with
// the lowest-index panic value and the panicking worker's stack, after
// every task below that index has run.
func TestForEachWorkerCarriesPanicToCaller(t *testing.T) {
	var ran [8]int32
	var got any
	func() {
		defer func() { got = recover() }()
		_ = ForEachWorkerCtx(nil, len(ran), 2, func(w, i int) error {
			atomic.AddInt32(&ran[i], 1)
			if i == 1 || i == 3 {
				panic(fmt.Sprintf("lane %d boom %d", w, i))
			}
			return nil
		})
		t.Error("ForEachWorkerCtx returned after a worker panicked")
	}()
	p, ok := got.(*Panic)
	if !ok {
		t.Fatalf("recovered %v (%T), want *Panic", got, got)
	}
	if s, _ := p.Value.(string); !strings.HasSuffix(s, "boom 1") {
		t.Errorf("panic value %q, want task 1's", p.Value)
	}
	if !strings.Contains(string(p.Stack), "par_test.go") {
		t.Errorf("stack is not the panicking worker's:\n%s", p.Stack)
	}
	if ran[0] != 1 {
		t.Error("task 0, below the panic, did not run")
	}
}
