// Package service is the mapping-as-a-service layer of the repository:
// a job queue, a canonical-instance result cache and cancellable search
// execution behind an HTTP/JSON API (cmd/nocd).
//
// One Server owns a bounded par.Pool of compute workers, a bounded
// submission queue with explicit backpressure (full queue = rejected
// submission, HTTP 429), and an LRU cache keyed by the canonical content
// hash of the resolved instance (Instance.Key, built on
// model.CDCG.Hash). Identical instances are deduplicated at every stage:
// a submission matching a cached key completes instantly from the cache;
// one matching an in-flight computation attaches to it as a follower and
// shares the single compute. Because search results are deterministic
// under a fixed seed and Result contains no wall-clock state, all three
// paths serve byte-identical result JSON.
//
// Cancellation runs on context.Context threaded through core.Explore
// into every search engine; progress streams out of the same plumbing
// via search.ProgressFunc into per-job event subscriptions.
//
// Observability rides internal/obs: a Prometheus-text metric registry
// (Registry) over the server's atomic counters, engine-labeled search
// telemetry folded from progress snapshots into each job's status
// telemetry block, per-phase spans timed on the Config.Now clock seam,
// structured slog lifecycle logs, and X-Request-ID propagation from the
// HTTP middleware through job status, SSE events and every log line.
// Telemetry is strictly observational — it lives in the status
// envelope, never in the cache-keyed Result, so replayed results stay
// byte-identical.
//
// Job computes inherit the evaluator fast paths of core.Explore: CWM
// jobs price candidate swaps incrementally (search.DeltaObjective), and
// CDCM jobs run the allocation-free wormhole scratch lanes — one shared
// immutable simulator core per job, one wormhole.Scratch per search
// worker (core.CDCM.Clone) — so a daemon under load allocates almost
// nothing per evaluated mapping.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync/atomic"
	"time"

	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/search"
)

// Errors the HTTP layer maps to status codes (ErrBadRequest lives in
// request.go).
var (
	// ErrQueueFull reports that the bounded job queue refused a
	// submission — backpressure, HTTP 429.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrShuttingDown reports a submission during drain — HTTP 503.
	ErrShuttingDown = errors.New("service: shutting down")
)

// Config sizes a Server. Zero values pick daemon defaults.
type Config struct {
	// Workers is the compute-pool size (0 = one per logical CPU).
	Workers int
	// QueueSize bounds jobs submitted but not yet started (0 = 64).
	QueueSize int
	// CacheSize bounds the result LRU in entries (0 = 256).
	CacheSize int
	// MaxJobs bounds retained job records; once exceeded, the oldest
	// terminal jobs are forgotten (0 = 4096). Active jobs are never
	// evicted.
	MaxJobs int
	// Now is the server's time source (nil = time.Now). Every timestamp
	// the service records — submission, start, finish, elapsed-time
	// snapshots of running jobs, phase spans, access-log durations —
	// reads this clock, so tests inject a fake and observe deterministic
	// wall-clock fields.
	Now func() time.Time
	// Logger receives the server's structured logs: HTTP access lines
	// and job lifecycle events, each carrying the request ID. Nil
	// discards them.
	Logger *slog.Logger
}

type metrics struct {
	submitted, rejected             atomic.Int64
	completed, failed, canceled     atomic.Int64
	cacheHits, cacheMisses, compute atomic.Int64
	// running counts leader jobs between start and the publication of
	// their terminal state: nocd_jobs_running.
	running atomic.Int64
	// dedups counts submissions attached to an in-flight identical
	// computation (a subset of cacheHits, which has always covered both
	// cache and dedup hits).
	dedups atomic.Int64
	// panics counts computes that panicked and were failed instead of
	// taking the daemon down: nocd_job_panics_total.
	panics atomic.Int64
}

// Server is the mapping service: submit with Submit, look up with Job,
// stop with Shutdown. The HTTP API in http.go is a thin layer over these
// methods, so in-process callers (tests, benchmarks, future batch
// front-ends) get the same semantics as network clients.
type Server struct {
	pool       *par.Pool
	cache      *lruCache
	baseCtx    context.Context
	baseCancel context.CancelFunc
	maxJobs    int
	now        func() time.Time
	log        *slog.Logger

	// Observability (see obs.go for the registry wiring). Everything
	// here is updated with lock-free atomics only; code holding s.mu
	// must never touch the registry or its vectors (the scrape path
	// takes registry locks and then, in gauge closures, s.mu — so the
	// reverse order would deadlock).
	reg             *obs.Registry
	httpRequests    *obs.CounterVec
	jobDuration     *obs.HistogramVec
	searchEvals     *obs.CounterVec
	searchExact     *obs.CounterVec
	searchSkips     *obs.CounterVec
	searchSurrogate *obs.CounterVec
	searchAccepted  *obs.CounterVec
	searchRejected  *obs.CounterVec
	searchRestarts  *obs.CounterVec
	sseSubs         *obs.Gauge
	evals           *obs.Counter

	mu       sync.Mutex
	closed   bool
	nextID   int64
	jobs     map[string]*Job
	order    []string // submission order, for bounded retention
	inflight map[string]*Job
	m        metrics
}

// New builds and starts a Server.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers == 0 {
		workers = par.DefaultWorkers()
	}
	queue := cfg.QueueSize
	if queue == 0 {
		queue = 64
	}
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = 256
	}
	maxJobs := cfg.MaxJobs
	if maxJobs == 0 {
		maxJobs = 4096
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		pool:       par.NewPool(workers, queue),
		cache:      newLRU(cacheSize),
		baseCtx:    ctx,
		baseCancel: cancel,
		maxJobs:    maxJobs,
		now:        now,
		log:        log,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
	}
	s.initObs()
	return s
}

// Submit resolves, keys and enqueues one request. It returns the created
// job, which is already terminal on a cache hit. Errors: ErrBadRequest
// (invalid request), ErrQueueFull (backpressure), ErrShuttingDown.
func (s *Server) Submit(req *Request) (*Job, error) {
	return s.submit(req, "")
}

// submit is Submit with the originating request ID attached; the HTTP
// layer passes the X-Request-ID it accepted or minted. Lifecycle logs
// are emitted here, after s.mu is released.
func (s *Server) submit(req *Request, requestID string) (*Job, error) {
	in, err := req.Resolve()
	if err != nil {
		s.log.Warn("job rejected", "reason", "bad request", "error", err.Error(), "request_id", requestID)
		return nil, err
	}
	key := in.Key()

	j, outcome, err := s.enqueue(in, key, requestID)
	if err != nil {
		s.log.Warn("job rejected", "reason", outcome, "key", key, "request_id", requestID)
		return nil, err
	}
	s.log.Info("job submitted", "job_id", j.ID, "outcome", outcome, "key", key,
		"strategy", in.Strategy.String(), "request_id", requestID)
	return j, nil
}

// enqueue is the locked section of submit: it classifies the submission
// as cache_hit, dedup or queued and does the matching bookkeeping. Only
// lock-free atomics are touched under s.mu (see the Server lock rule).
func (s *Server) enqueue(in *Instance, key, requestID string) (*Job, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.m.rejected.Add(1)
		return nil, "shutting down", ErrShuttingDown
	}
	s.nextID++
	j := newJob(fmt.Sprintf("j-%06d", s.nextID), key, requestID, in, s.now)

	if raw, ok := s.cache.Get(key); ok {
		s.m.submitted.Add(1)
		s.m.cacheHits.Add(1)
		s.retain(j)
		j.finish(raw, nil, true, s.now())
		s.m.completed.Add(1)
		return j, "cache_hit", nil
	}
	if leader, ok := s.inflight[key]; ok {
		// Attach to the in-flight computation: one compute, N results.
		s.m.submitted.Add(1)
		s.m.cacheHits.Add(1)
		s.m.dedups.Add(1)
		j.leader = leader
		leader.followers = append(leader.followers, j)
		s.retain(j)
		return j, "dedup", nil
	}

	if !s.pool.TrySubmit(func() { s.runJob(j) }) {
		s.m.rejected.Add(1)
		return nil, "queue full", ErrQueueFull
	}
	s.m.submitted.Add(1)
	s.m.cacheMisses.Add(1)
	s.inflight[key] = j
	s.retain(j)
	return j, "queued", nil
}

// retain records a job and evicts the oldest terminal records beyond
// MaxJobs. Active jobs are never evicted: the scan skips over them to
// the oldest terminal record, so a long-running job at the head cannot
// pin an unbounded tail of finished records behind it. Caller holds
// s.mu.
func (s *Server) retain(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	overflow := len(s.order) - s.maxJobs
	if overflow <= 0 {
		return
	}
	var active []string
	i := 0
	for ; i < len(s.order) && overflow > 0; i++ {
		id := s.order[i]
		old, ok := s.jobs[id]
		if !ok {
			overflow--
			continue
		}
		if old.Status().State.Terminal() {
			delete(s.jobs, id)
			overflow--
		} else {
			active = append(active, id)
		}
	}
	s.order = append(active, s.order[i:]...)
}

// Job returns a tracked job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job: a queued job is finished as
// canceled before it ever computes, a running job's context is canceled
// and the search engines stop at their next poll, and a follower is
// detached without disturbing the shared computation. Canceling a
// terminal job is a no-op. The second return reports whether the job
// exists.
func (s *Server) Cancel(id string) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	if j.leader != nil {
		// Detach the follower; the leader's compute (and its other
		// followers) continue undisturbed.
		l := j.leader
		for i, f := range l.followers {
			if f == j {
				l.followers = append(l.followers[:i], l.followers[i+1:]...)
				break
			}
		}
		j.leader = nil
		s.mu.Unlock()
		if j.finish(nil, context.Canceled, false, s.now()) {
			s.m.canceled.Add(1)
		}
		return j, true
	}
	// Leader (or sole) job: remove it from the in-flight index so new
	// identical submissions start a fresh compute, then cancel.
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	followers := j.followers
	j.followers = nil
	for _, f := range followers {
		f.leader = nil
	}
	s.mu.Unlock()

	j.requestCancel()
	if j.Status().State == StateQueued {
		// The pool has not reached it yet; finish now so the caller sees
		// a terminal state immediately. runJob's later start() fails and
		// its finish is a no-op.
		if j.finish(nil, context.Canceled, false, s.now()) {
			s.m.canceled.Add(1)
		}
	}
	// The shared computation is gone; followers cancel with it.
	for _, f := range followers {
		if f.finish(nil, fmt.Errorf("%w (shared computation canceled)", context.Canceled), false, s.now()) {
			s.m.canceled.Add(1)
		}
	}
	return j, true
}

// runJob executes one leader job on a pool worker.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	in := j.start(cancel, s.now())
	if in == nil {
		// Canceled while queued; Cancel normally finished it already, so
		// this finish is usually a no-op.
		if j.finish(nil, context.Canceled, false, s.now()) {
			s.m.canceled.Add(1)
		}
		return
	}
	s.m.compute.Add(1)
	s.m.running.Add(1)
	s.log.Info("job started", "job_id", j.ID, "strategy", in.Strategy.String(),
		"request_id", j.requestID)
	onProgress := func(p search.Progress) {
		d := j.publishProgress(p)
		// Engine-labeled counters take the snapshot's own engine name:
		// with a multi-engine future (portfolios) the label follows the
		// emitter, not the job.
		s.searchEvals.With(p.Engine).Add(d.evals)
		s.searchExact.With(p.Engine).Add(d.exact)
		s.searchSkips.With(p.Engine).Add(d.skips)
		s.searchSurrogate.With(p.Engine).Add(d.surrogate)
		s.searchAccepted.With(p.Engine).Add(d.accepted)
		s.searchRejected.With(p.Engine).Add(d.rejected)
		if d.newStream {
			s.searchRestarts.With(p.Engine).Inc()
		}
	}
	onPhase := func(name string) { j.markPhase(name, s.now()) }
	raw, err := s.compute(ctx, j, in, onProgress, onPhase)
	s.finishLeader(j, in, raw, err)
}

// exploreHook is a test-only hook invoked on the compute goroutine just
// before a job's exploration; the panic-recovery test makes it panic.
// Nil in production.
var exploreHook func(in *Instance)

// compute runs a leader job's exploration and encodes its Result. A
// panic on the way fails the job, not the daemon: it is counted, its
// stack is logged, and it returns as an error, so finishLeader releases
// the job's in-flight entry and running count and caches nothing. A
// panic on a search worker lane reaches here as a *par.Panic carrying
// that lane's stack, which is the one logged.
func (s *Server) compute(ctx context.Context, j *Job, in *Instance, onProgress search.ProgressFunc,
	onPhase func(string)) (raw json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.m.panics.Add(1)
			stack := debug.Stack()
			if p, ok := r.(*par.Panic); ok {
				stack = p.Stack
			}
			s.log.Error("job panicked", "job_id", j.ID, "panic", fmt.Sprint(r),
				"stack", string(stack), "request_id", j.requestID)
			raw, err = nil, fmt.Errorf("service: job panicked: %v", r)
		}
	}()
	if exploreHook != nil {
		exploreHook(in)
	}
	opts := in.Opts
	opts.Ctx, opts.OnProgress, opts.OnPhase, opts.EvalCounter = ctx, onProgress, onPhase, s.evals
	res, err := core.Explore(in.Strategy, in.Mesh, in.Cfg, in.Tech, in.G, opts)
	if err != nil {
		return nil, err
	}
	return json.Marshal(NewResult(in, res))
}

// finishLeader completes a leader job and everything attached to it, and
// feeds the cache on success. The job's metrics are updated before its
// terminal state is published, so a client that polls until the job is
// done and then scrapes /metrics sees them.
func (s *Server) finishLeader(j *Job, in *Instance, raw json.RawMessage, err error) {
	now := s.now()
	if st := j.Status(); st.StartedAt != nil {
		// Job latency by model/strategy, on the server clock seam. Only
		// computed jobs observe: cache hits never start.
		s.jobDuration.With(in.Strategy.String()).Observe(now.Sub(*st.StartedAt).Seconds())
	}
	s.m.running.Add(-1)
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	followers := j.followers
	j.followers = nil
	for _, f := range followers {
		f.leader = nil
	}
	if err == nil {
		s.cache.Add(j.key, raw)
	}
	s.mu.Unlock()

	if j.finish(raw, err, false, now) {
		s.countFinish(err)
	}
	for _, f := range followers {
		var ferr error
		if err != nil {
			ferr = fmt.Errorf("shared computation: %w", err)
		}
		if f.finish(raw, ferr, true, now) {
			s.countFinish(ferr)
		}
	}

	st := j.Status()
	logArgs := []any{"job_id", j.ID, "state", string(st.State),
		"duration_ms", st.ElapsedMS, "followers", len(followers), "request_id", j.requestID}
	if err != nil {
		s.log.Warn("job finished", append(logArgs, "error", err.Error())...)
	} else {
		s.log.Info("job finished", logArgs...)
	}
}

func (s *Server) countFinish(err error) {
	switch {
	case err == nil:
		s.m.completed.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.m.canceled.Add(1)
	default:
		s.m.failed.Add(1)
	}
}

// Shutdown drains the service: new submissions are refused, queued and
// running jobs finish, and the compute pool exits. If ctx expires first,
// the remaining jobs are canceled (they finish promptly as canceled) and
// Shutdown returns ctx.Err() after they do.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.pool.Close()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel() // cancel in-flight searches; they stop at next poll
		<-done
		return ctx.Err()
	}
}
