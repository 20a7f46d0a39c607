package service

import (
	"context"
	"encoding/json"
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/search"
)

// State is a job's lifecycle position.
type State string

// Job states. Queued and Running are transient; the other three are
// terminal and final.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// ProgressJSON is the wire form of a search.Progress snapshot.
type ProgressJSON struct {
	Engine      string `json:"engine"`
	Restart     int    `json:"restart"`
	Step        int    `json:"step"`
	Steps       int    `json:"steps"`
	Evaluations int64  `json:"evaluations"`
	// Two-tier split of Evaluations; see Result for the invariant.
	ExactEvals     int64   `json:"exact_evals"`
	BoundSkips     int64   `json:"bound_skips"`
	SurrogateEvals int64   `json:"surrogate_evals"`
	Accepted       int64   `json:"accepted"`
	Rejected       int64   `json:"rejected"`
	BestCost       float64 `json:"best_cost_j"`
}

// Event is one server-sent event on /v1/jobs/{id}/events.
type Event struct {
	// Type is "progress" or "done".
	Type string `json:"type"`
	// RequestID is the submitting request's ID, carried on every event
	// so a stream consumer can correlate against the daemon's logs.
	RequestID string `json:"request_id,omitempty"`
	// Progress is set on progress events.
	Progress *ProgressJSON `json:"progress,omitempty"`
	// Job is the final status, set on the done event.
	Job *JobStatus `json:"job,omitempty"`
}

// SpansJSON is the per-phase wall-clock breakdown of a computed job,
// measured on the server's clock seam (Config.Now): time spent queued,
// building the evaluators, searching, and pricing the winner. It is
// attached once the job is terminal; it lives in the status envelope,
// never in the cache-keyed Result.
type SpansJSON struct {
	QueuedMS float64 `json:"queued_ms"`
	BuildMS  float64 `json:"build_ms"`
	SearchMS float64 `json:"search_ms"`
	PriceMS  float64 `json:"price_ms"`
}

// EngineTelemetryJSON aggregates one engine's search telemetry across
// its restarts/shards: totals of the final Progress snapshot per stream.
type EngineTelemetryJSON struct {
	Engine      string `json:"engine"`
	Restarts    int    `json:"restarts"`
	Snapshots   int64  `json:"snapshots"`
	Evaluations int64  `json:"evaluations"`
	// Two-tier split of Evaluations; see Result for the invariant.
	ExactEvals     int64   `json:"exact_evals"`
	BoundSkips     int64   `json:"bound_skips"`
	SurrogateEvals int64   `json:"surrogate_evals"`
	Accepted       int64   `json:"accepted"`
	Rejected       int64   `json:"rejected"`
	BestCost       float64 `json:"best_cost_j"`
}

// TelemetryJSON is the observability block of a computed job's status:
// phase spans plus per-engine search telemetry. Cache-hit and
// deduplicated jobs have none (nothing was computed for them), which is
// also what keeps their result bytes identical to the original compute.
type TelemetryJSON struct {
	Spans   *SpansJSON            `json:"spans,omitempty"`
	Engines []EngineTelemetryJSON `json:"engines,omitempty"`
}

// JobStatus is the wire form of a job — the body of POST/GET/DELETE
// /v1/jobs responses. Result is raw pre-encoded bytes so identical
// instances serve byte-identical result JSON whether computed, cached or
// deduplicated.
type JobStatus struct {
	ID          string          `json:"id"`
	State       State           `json:"state"`
	Key         string          `json:"key"`
	RequestID   string          `json:"request_id,omitempty"`
	CacheHit    bool            `json:"cache_hit"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	ElapsedMS   float64         `json:"elapsed_ms"`
	Progress    *ProgressJSON   `json:"progress,omitempty"`
	Telemetry   *TelemetryJSON  `json:"telemetry,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	Error       string          `json:"error,omitempty"`
}

// Job is one submitted mapping instance tracked by the Server.
//
// Locking: Job.mu guards every mutable field below it. The Server's
// bookkeeping (inflight map, follower/leader links) is guarded by
// Server.mu, and the lock order is always Server.mu before Job.mu.
type Job struct {
	// Immutable after creation.
	ID  string
	key string
	// requestID is the submitting request's X-Request-ID (empty for
	// in-process submissions without one); it rides on the job status
	// and on every SSE event so clients can correlate with the logs.
	requestID string
	// clock is the server's time source (the Server.now seam), so status
	// snapshots of fake-clocked servers report fake elapsed times too.
	clock func() time.Time

	mu sync.Mutex
	// in is the resolved instance (CDCG, mesh, options). start hands it
	// to the one compute, and finish drops it, so the thousands of
	// retained finished jobs keep their status and result, not their
	// instances.
	in        *Instance
	state     State
	cacheHit  bool
	canceling bool // cancel requested; runJob turns it into StateCanceled
	cancel    context.CancelFunc
	submitted time.Time
	started   time.Time
	finished  time.Time
	progress  *ProgressJSON
	phases    map[string]time.Time
	streams   map[streamKey]*streamStats
	result    json.RawMessage
	errMsg    string
	done      chan struct{}
	subs      map[chan Event]struct{}

	// Guarded by Server.mu, not Job.mu (see Server).
	leader    *Job
	followers []*Job
}

// streamKey identifies one telemetry stream: each (engine, restart)
// pair emits cumulative Progress snapshots from a single worker lane.
type streamKey struct {
	engine  string
	restart int
}

// streamStats is the per-stream aggregation state: the latest
// cumulative snapshot and how many snapshots arrived.
type streamStats struct {
	last  search.Progress
	snaps int64
}

// progressDelta is what one snapshot added over the previous one on its
// stream — the increments the server folds into its engine-labeled
// counters.
type progressDelta struct {
	evals, accepted, rejected int64
	exact, skips, surrogate   int64
	newStream                 bool
}

func newJob(id, key, requestID string, in *Instance, clock func() time.Time) *Job {
	if clock == nil {
		clock = time.Now
	}
	return &Job{
		ID:        id,
		key:       key,
		in:        in,
		requestID: requestID,
		clock:     clock,
		state:     StateQueued,
		submitted: clock(),
		done:      make(chan struct{}),
		subs:      make(map[chan Event]struct{}),
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job is terminal and returns its final status.
func (j *Job) Wait() JobStatus {
	<-j.done
	return j.Status()
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		State:       j.state,
		Key:         j.key,
		RequestID:   j.requestID,
		CacheHit:    j.cacheHit,
		SubmittedAt: j.submitted,
		Progress:    j.progress,
		Telemetry:   j.telemetryLocked(),
		Result:      j.result,
		Error:       j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
		end := j.finished
		if end.IsZero() {
			// Still running: measure against the server clock seam, not the
			// wall clock, so fake-clocked tests see consistent elapsed times.
			end = j.clock()
		}
		st.ElapsedMS = float64(end.Sub(j.started).Nanoseconds()) / 1e6
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// telemetryLocked assembles the status telemetry block. Caller holds
// j.mu. Spans appear once the job is terminal and all three phase marks
// exist (i.e. it actually computed); engine aggregates appear as soon as
// snapshots arrive, so a running job's status already reports them.
func (j *Job) telemetryLocked() *TelemetryJSON {
	var tel TelemetryJSON
	if j.state.Terminal() && !j.started.IsZero() && !j.finished.IsZero() {
		build, bok := j.phases["build"]
		srch, sok := j.phases["search"]
		price, pok := j.phases["price"]
		if bok && sok && pok {
			tel.Spans = &SpansJSON{
				QueuedMS: durMS(j.submitted, j.started),
				BuildMS:  durMS(build, srch),
				SearchMS: durMS(srch, price),
				PriceMS:  durMS(price, j.finished),
			}
		}
	}
	if len(j.streams) > 0 {
		agg := make(map[string]*EngineTelemetryJSON, len(j.streams))
		//nocvet:ignore per-engine sums and minima are commutative, and the output is sorted below
		for k, st := range j.streams {
			e := agg[k.engine]
			if e == nil {
				e = &EngineTelemetryJSON{Engine: k.engine, BestCost: st.last.BestCost}
				agg[k.engine] = e
			}
			e.Restarts++
			e.Snapshots += st.snaps
			e.Evaluations += st.last.Evaluations
			e.ExactEvals += st.last.ExactEvals
			e.BoundSkips += st.last.BoundSkips
			e.SurrogateEvals += st.last.SurrogateEvals
			e.Accepted += st.last.Accepted
			e.Rejected += st.last.Rejected
			if st.last.BestCost < e.BestCost {
				e.BestCost = st.last.BestCost
			}
		}
		tel.Engines = make([]EngineTelemetryJSON, 0, len(agg))
		//nocvet:ignore collected into a slice and sorted before use
		for _, e := range agg {
			tel.Engines = append(tel.Engines, *e)
		}
		sort.Slice(tel.Engines, func(a, b int) bool { return tel.Engines[a].Engine < tel.Engines[b].Engine })
	}
	if tel.Spans == nil && len(tel.Engines) == 0 {
		return nil
	}
	return &tel
}

func durMS(from, to time.Time) float64 {
	return float64(to.Sub(from).Nanoseconds()) / 1e6
}

// markPhase records the first time a named exploration phase began;
// repeats (there are none today) keep the earliest mark.
func (j *Job) markPhase(name string, t time.Time) {
	j.mu.Lock()
	if j.phases == nil {
		j.phases = make(map[string]time.Time, 3)
	}
	if _, ok := j.phases[name]; !ok {
		j.phases[name] = t
	}
	j.mu.Unlock()
}

// start transitions queued -> running, records the cancel function and
// returns the instance to compute. It returns nil when cancellation was
// requested first, in which case the caller must not compute.
func (j *Job) start(cancel context.CancelFunc, now time.Time) *Instance {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceling || j.state.Terminal() {
		return nil
	}
	j.state = StateRunning
	j.started = now
	j.cancel = cancel
	return j.in
}

// requestCancel marks the job for cancellation and interrupts a running
// compute. It reports whether the request took effect (false once the
// job is already terminal or already canceling).
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.canceling {
		return false
	}
	j.canceling = true
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

// finish moves the job to its terminal state and reports whether this
// call made the transition. Idempotent: only the first call takes effect
// (a job canceled while queued is finished by Cancel and again,
// harmlessly, when the pool reaches it), so callers count metrics off
// the return value.
func (j *Job) finish(result json.RawMessage, err error, cacheHit bool, now time.Time) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	switch {
	case err == nil:
		j.state = StateSucceeded
		j.result = result
		j.cacheHit = cacheHit
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCanceled
		j.errMsg = err.Error()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	j.finished = now
	j.in = nil
	subs := make([]chan Event, 0, len(j.subs))
	//nocvet:ignore every subscriber gets the same event and delivery is non-blocking, so fan-out order is unobservable
	for ch := range j.subs {
		subs = append(subs, ch)
	}
	j.mu.Unlock()

	// Subscribers learn the terminal state from Done() (the event stream
	// selects on it), so the done event here is best-effort.
	ev := Event{Type: "done", RequestID: j.requestID}
	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
		}
	}
	close(j.done)
	return true
}

// publishProgress records a search snapshot, folds it into the per-job
// telemetry streams, and fans it out to event subscribers. It returns
// what the snapshot added over its stream's previous one, so the server
// can bump its engine-labeled counters without re-deriving the deltas.
// Called concurrently from parallel search lanes; events are dropped
// (never blocking) when a subscriber's buffer is full — progress events
// are snapshots, so losing an intermediate one is harmless.
func (j *Job) publishProgress(p search.Progress) progressDelta {
	pj := &ProgressJSON{
		Engine:         p.Engine,
		Restart:        p.Restart,
		Step:           p.Step,
		Steps:          p.Steps,
		Evaluations:    p.Evaluations,
		ExactEvals:     p.ExactEvals,
		BoundSkips:     p.BoundSkips,
		SurrogateEvals: p.SurrogateEvals,
		Accepted:       p.Accepted,
		Rejected:       p.Rejected,
		BestCost:       p.BestCost,
	}
	var d progressDelta
	j.mu.Lock()
	j.progress = pj
	if j.streams == nil {
		j.streams = make(map[streamKey]*streamStats)
	}
	k := streamKey{p.Engine, p.Restart}
	st, ok := j.streams[k]
	if !ok {
		st = &streamStats{}
		j.streams[k] = st
		d.newStream = true
	}
	// Snapshots are cumulative per stream; clamp protects the counters
	// against a regressing engine rather than trusting it blindly.
	d.evals = max(p.Evaluations-st.last.Evaluations, 0)
	d.exact = max(p.ExactEvals-st.last.ExactEvals, 0)
	d.skips = max(p.BoundSkips-st.last.BoundSkips, 0)
	d.surrogate = max(p.SurrogateEvals-st.last.SurrogateEvals, 0)
	d.accepted = max(p.Accepted-st.last.Accepted, 0)
	d.rejected = max(p.Rejected-st.last.Rejected, 0)
	st.last = p
	st.snaps++
	subs := make([]chan Event, 0, len(j.subs))
	//nocvet:ignore every subscriber gets the same event and delivery is non-blocking, so fan-out order is unobservable
	for ch := range j.subs {
		subs = append(subs, ch)
	}
	j.mu.Unlock()
	ev := Event{Type: "progress", RequestID: j.requestID, Progress: pj}
	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
		}
	}
	return d
}

// subscribe attaches an event channel; the caller must unsubscribe it.
func (j *Job) subscribe() chan Event {
	ch := make(chan Event, 16)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *Job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}
