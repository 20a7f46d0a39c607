package par

import (
	"sync"
	"sync/atomic"
)

// Pool is the daemon-facing sibling of ForEachCtx: a long-lived bounded
// worker pool with a bounded submission queue. ForEachCtx serves one-shot
// batch fan-outs of a known size; Pool serves an open-ended stream of
// jobs arriving over time (the nocd mapping service schedules its job
// queue onto one). Backpressure is explicit — TrySubmit refuses instead
// of blocking when the queue is full — so callers can turn a saturated
// pool into a visible rejection (HTTP 429) rather than unbounded memory
// growth.
type Pool struct {
	tasks  chan func()
	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
	queued atomic.Int64
}

// NewPool starts a pool of Workers(workers) goroutines with a submission
// queue of the given capacity (minimum 1). The pool runs until Close.
func NewPool(workers, queue int) *Pool {
	if queue < 1 {
		queue = 1
	}
	p := &Pool{tasks: make(chan func(), queue)}
	n := Workers(workers)
	p.wg.Add(n)
	for w := 0; w < n; w++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for task := range p.tasks {
		p.queued.Add(-1)
		task()
	}
}

// TrySubmit enqueues task for execution, or reports false when the queue
// is full or the pool is closed. Tasks run in submission order across the
// pool, concurrently up to the worker count.
func (p *Pool) TrySubmit(task func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.tasks <- task:
		p.queued.Add(1)
		return true
	default:
		return false
	}
}

// Queued returns the number of submitted tasks that have not yet started.
func (p *Pool) Queued() int { return int(p.queued.Load()) }

// Close stops accepting new tasks, drains every already-queued task, and
// waits for all workers to finish. Safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
