package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

// fastRequest is a small deterministic CWM/SA job (~ms).
func fastRequest(seed int64) *Request {
	return &Request{Demo: true, Mesh: "2x2", Model: "cwm", Method: "sa", Seed: seed}
}

// slowRequest is a CDCM/SA job with a budget large enough that it only
// ends by cancellation within a test's lifetime.
func slowRequest(seed int64) *Request {
	return &Request{Demo: true, Mesh: "3x3", Model: "cdcm", Method: "sa", Seed: seed,
		TempSteps: 1 << 20, MovesPerTemp: 1 << 12, StallSteps: 1 << 20}
}

// mediumRequest takes a few hundred milliseconds — long enough to still
// be in flight when a drain starts, short enough to finish within it.
func mediumRequest(seed int64) *Request {
	return &Request{Demo: true, Mesh: "2x2", Model: "cdcm", Method: "sa", Seed: seed,
		TempSteps: 300, MovesPerTemp: 400, StallSteps: 300}
}

func waitTerminal(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
		return j.Status()
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never finished (state %s)", j.ID, j.Status().State)
		return JobStatus{}
	}
}

// waitState polls until the job reaches the wanted transient state.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j.Status().State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (state %s)", j.ID, want, j.Status().State)
}

func TestSubmitComputeThenCacheHit(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())

	j1, err := s.Submit(fastRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitTerminal(t, j1)
	if st1.State != StateSucceeded || st1.CacheHit || len(st1.Result) == 0 {
		t.Fatalf("first job: %+v", st1)
	}
	var res Result
	if err := json.Unmarshal(st1.Result, &res); err != nil {
		t.Fatalf("result does not decode: %v", err)
	}
	if res.Model != "CWM" || res.Seed != 7 || res.TotalJ <= 0 || len(res.Mapping) != 4 {
		t.Fatalf("implausible result: %+v", res)
	}

	j2, err := s.Submit(fastRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitTerminal(t, j2)
	if st2.State != StateSucceeded || !st2.CacheHit {
		t.Fatalf("second job not served from cache: %+v", st2)
	}
	if !bytes.Equal(st1.Result, st2.Result) {
		t.Errorf("cached result not byte-identical:\n%s\n%s", st1.Result, st2.Result)
	}
	if st1.Key != st2.Key {
		t.Errorf("identical requests keyed differently: %s vs %s", st1.Key, st2.Key)
	}
	if got := s.m.compute.Load(); got != 1 {
		t.Errorf("computes = %d, want 1", got)
	}
	if got := s.m.cacheHits.Load(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}

	// A different seed is a different instance: fresh compute, new key.
	j3, err := s.Submit(fastRequest(8))
	if err != nil {
		t.Fatal(err)
	}
	if st3 := waitTerminal(t, j3); st3.CacheHit || st3.Key == st1.Key {
		t.Errorf("distinct instance hit the cache: %+v", st3)
	}
}

func TestWorkersExcludedFromCacheKey(t *testing.T) {
	r1, r2 := fastRequest(3), fastRequest(3)
	r2.Workers = 8
	in1, err := r1.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	in2, err := r2.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if in1.Key() != in2.Key() {
		t.Error("worker count changed the cache key (results are worker-independent)")
	}
	r3 := fastRequest(3)
	r3.Restarts = 5
	in3, err := r3.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if in3.Key() == in1.Key() {
		t.Error("restart count did not change the cache key (restarts change results)")
	}
}

// TestConcurrentIdenticalSubmissionsComputeOnce is the dedup contract
// under -race: N concurrent submissions of one instance, exactly one
// compute, N byte-identical results.
func TestConcurrentIdenticalSubmissionsComputeOnce(t *testing.T) {
	s := New(Config{Workers: 4, QueueSize: 64})
	defer s.Shutdown(context.Background())

	const n = 24
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit(mediumRequest(11))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()

	var first json.RawMessage
	for i, j := range jobs {
		if j == nil {
			continue
		}
		st := waitTerminal(t, j)
		if st.State != StateSucceeded {
			t.Fatalf("job %d: %+v", i, st)
		}
		if first == nil {
			first = st.Result
		} else if !bytes.Equal(first, st.Result) {
			t.Fatalf("job %d result differs", i)
		}
	}
	if got := s.m.compute.Load(); got != 1 {
		t.Errorf("computes = %d, want exactly 1", got)
	}
	if got := s.m.cacheHits.Load(); got != n-1 {
		t.Errorf("cache/dedup hits = %d, want %d", got, n-1)
	}
}

func TestCancelRunningJobPromptly(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(slowRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)

	start := time.Now()
	cj, ok := s.Cancel(j.ID)
	if !ok || cj != j {
		t.Fatal("cancel did not find the job")
	}
	st := waitTerminal(t, j)
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	// "Promptly": the search polls its context every few evaluations; a
	// second is orders of magnitude above the expected latency.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %s", d)
	}
	// Canceling a terminal job is a harmless no-op.
	if _, ok := s.Cancel(j.ID); !ok {
		t.Error("re-cancel lost the job")
	}
	if st := j.Status(); st.State != StateCanceled {
		t.Errorf("re-cancel changed state to %s", st.State)
	}
}

func TestCancelQueuedJobNeverComputes(t *testing.T) {
	s := New(Config{Workers: 1, QueueSize: 4})
	defer s.Shutdown(context.Background())

	blocker, err := s.Submit(slowRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	queued, err := s.Submit(slowRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Cancel(queued.ID); !ok {
		t.Fatal("cancel did not find the queued job")
	}
	if st := waitTerminal(t, queued); st.State != StateCanceled {
		t.Fatalf("queued job state = %s, want canceled", st.State)
	}
	computes := s.m.compute.Load()
	s.Cancel(blocker.ID)
	waitTerminal(t, blocker)
	if got := s.m.compute.Load(); got != computes {
		t.Errorf("canceled queued job computed anyway (%d -> %d)", computes, got)
	}
}

func TestCancelFollowerLeavesLeaderRunning(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	leader, err := s.Submit(slowRequest(4))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, leader, StateRunning)
	follower, err := s.Submit(slowRequest(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Cancel(follower.ID); !ok {
		t.Fatal("cancel did not find the follower")
	}
	if st := waitTerminal(t, follower); st.State != StateCanceled {
		t.Fatalf("follower state = %s", st.State)
	}
	if st := leader.Status(); st.State != StateRunning {
		t.Fatalf("canceling a follower disturbed the leader: %s", st.State)
	}
	s.Cancel(leader.ID)
	if st := waitTerminal(t, leader); st.State != StateCanceled {
		t.Fatalf("leader state = %s", st.State)
	}
}

func TestCancelLeaderCancelsFollowers(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	leader, err := s.Submit(slowRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, leader, StateRunning)
	follower, err := s.Submit(slowRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(leader.ID)
	if st := waitTerminal(t, leader); st.State != StateCanceled {
		t.Fatalf("leader state = %s", st.State)
	}
	if st := waitTerminal(t, follower); st.State != StateCanceled {
		t.Fatalf("follower state = %s", st.State)
	}
}

func TestQueueBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueSize: 1})
	defer s.Shutdown(context.Background())

	running, err := s.Submit(slowRequest(6))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, err := s.Submit(slowRequest(7))
	if err != nil {
		t.Fatalf("queued submit refused: %v", err)
	}
	if _, err := s.Submit(slowRequest(8)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := s.m.rejected.Load(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	// Unblock the deferred drain: neither slow job may survive it.
	s.Cancel(queued.ID)
	s.Cancel(running.ID)
}

func TestBadRequestsRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	bad := []*Request{
		{},                                            // no app, no demo
		{Demo: true, Mesh: "1x1"},                     // 4 cores cannot fit
		{Demo: true, Tech: "90nm"},                    // unknown tech
		{Demo: true, Model: "x"},                      // unknown model
		{Demo: true, Method: "x"},                     // unknown method
		{Demo: true, Routing: "zz"},                   // unknown routing
		{Demo: true, Restarts: -1},                    // negative restarts
		{Demo: true, Alpha: 1.5},                      // alpha outside (0,1)
		{Demo: true, TempSteps: -5},                   // negative tuning
		{Demo: true, FlitBits: -1},                    // invalid flit width
		{Demo: true, Topology: "tube"},                // unknown topology
		{Demo: true, App: model.PaperExampleCDCG()},   // app and demo together
		{Demo: true, Model: "pareto", Method: "hill"}, // pareto runs only SA
		{Demo: true, Model: "pareto", Method: "es"},   // pareto runs only SA
	}
	for i, req := range bad {
		if _, err := s.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("bad request %d: err = %v, want ErrBadRequest", i, err)
		}
	}
}

func TestRetentionEvictsPastActiveHead(t *testing.T) {
	// A long-running job at the head of the retention order must not pin
	// the terminal records submitted after it: the eviction scan skips
	// active jobs and drops the oldest terminal ones.
	// Two workers: the long job pins one, the fast jobs' single compute
	// needs the other.
	s := New(Config{Workers: 2, MaxJobs: 8, QueueSize: 4})
	defer s.Shutdown(context.Background())

	long, err := s.Submit(slowRequest(100))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, long, StateRunning)
	// 20 quick terminal jobs behind the active head (cache-hit repeats
	// after the first, so only one compute worker is needed).
	var last *Job
	for i := 0; i < 20; i++ {
		j, err := s.Submit(fastRequest(200))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		last = j
	}
	s.mu.Lock()
	retained := len(s.jobs)
	_, activeKept := s.jobs[long.ID]
	s.mu.Unlock()
	if retained > 8+1 { // MaxJobs plus at most the skipped active head
		t.Errorf("retained %d job records, want <= 9", retained)
	}
	if !activeKept {
		t.Error("active job was evicted")
	}
	if _, ok := s.Job(last.ID); !ok {
		t.Error("newest terminal job was evicted")
	}
	s.Cancel(long.ID)
}

func TestShutdownDrainsInFlightJobs(t *testing.T) {
	s := New(Config{Workers: 1})
	j, err := s.Submit(mediumRequest(9))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()

	// During the drain, new submissions are refused...
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := s.Submit(fastRequest(10))
		if errors.Is(err, ErrShuttingDown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions were never refused during drain")
		}
		time.Sleep(time.Millisecond)
	}
	// ...and the in-flight job finishes rather than being killed.
	if err := <-done; err != nil {
		t.Fatalf("drain returned %v", err)
	}
	if st := j.Status(); st.State != StateSucceeded {
		t.Fatalf("drained job state = %s, want succeeded", st.State)
	}
}

func TestShutdownTimeoutCancelsStragglers(t *testing.T) {
	s := New(Config{Workers: 1})
	j, err := s.Submit(slowRequest(12))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if st := j.Status(); st.State != StateCanceled {
		t.Fatalf("straggler state = %s, want canceled", st.State)
	}
}

// paretoRequest is a small deterministic pareto-front job.
func paretoRequest(seed int64) *Request {
	return &Request{Demo: true, Mesh: "3x3", Model: "pareto", Seed: seed,
		TempSteps: 8, MovesPerTemp: 10, Restarts: 4, FrontSize: 8}
}

func TestParetoJobFrontSchemaAndCache(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())

	j1, err := s.Submit(paretoRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitTerminal(t, j1)
	if st1.State != StateSucceeded || st1.CacheHit {
		t.Fatalf("pareto job: %+v", st1)
	}
	var res Result
	if err := json.Unmarshal(st1.Result, &res); err != nil {
		t.Fatalf("result does not decode: %v", err)
	}
	if res.Model != "pareto" {
		t.Fatalf("model = %q", res.Model)
	}
	if len(res.FrontAxes) != 3 || res.FrontAxes[0] != "dynamic_j" {
		t.Fatalf("front axes %v", res.FrontAxes)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front in result")
	}
	bestCost := res.Front[0].CostJ
	for i, p := range res.Front {
		if len(p.Mapping) != res.Cores || len(p.Components) != len(res.FrontAxes) {
			t.Fatalf("front point %d malformed: %+v", i, p)
		}
		if p.CostJ < bestCost {
			bestCost = p.CostJ
		}
	}
	// The scalar summary is the front's cheapest point.
	if res.BestCost != bestCost {
		t.Fatalf("best_cost_j %g != front minimum %g", res.BestCost, bestCost)
	}

	// Identical resubmission: served from cache, byte-identical front.
	j2, err := s.Submit(paretoRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitTerminal(t, j2)
	if st2.State != StateSucceeded || !st2.CacheHit {
		t.Fatalf("pareto resubmission not cached: %+v", st2)
	}
	if !bytes.Equal(st1.Result, st2.Result) {
		t.Error("cached pareto result not byte-identical")
	}

	// The front knobs are part of the instance key: changing either is a
	// different job, not a cache hit.
	bigger := paretoRequest(7)
	bigger.FrontSize = 16
	seeded := paretoRequest(7)
	seeded.GreedySeed = true
	for name, r := range map[string]*Request{"front_size": bigger, "greedy_seed": seeded} {
		j, err := s.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j); st.CacheHit || st.Key == st1.Key {
			t.Errorf("%s change still hit the cache: %+v", name, st)
		}
	}

	// Scalar jobs must not grow front fields (omitempty keeps the schema
	// byte-stable for every existing consumer).
	js, err := s.Submit(fastRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, js); bytes.Contains(st.Result, []byte(`"front`)) {
		t.Errorf("scalar result leaks front fields: %s", st.Result)
	}
}
