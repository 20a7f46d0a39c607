package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// stepClock advances one second on every reading, so each call site of
// the Config.Now seam lands on a distinct, predictable tick.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Second)
	return c.t
}

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// promSample matches one exposition sample line:
// name{labels} value — labels optional, value a float, inf or NaN.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (\+Inf|-Inf|NaN|[-+0-9.eE]+)$`)

func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts := testServer(t, Config{})

	// One computed job plus one cache-hit replay gives every counter
	// family something to say.
	_, st := postJob(t, ts, `{"demo":true,"mesh":"2x2","model":"cwm","method":"sa","seed":11}`)
	pollUntil(t, ts, st.ID, StateSucceeded)
	resp2, st2 := postJob(t, ts, `{"demo":true,"mesh":"2x2","model":"cwm","method":"sa","seed":11}`)
	if resp2.StatusCode != http.StatusOK || !st2.CacheHit {
		t.Fatalf("expected cache hit, got %d %+v", resp2.StatusCode, st2)
	}

	resp, body := getBody(t, ts.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("content-type = %q, want %q", ct, obs.ContentType)
	}

	// Every line is a comment or a well-formed sample, and the exposition
	// carries at least a dozen distinct families.
	types := 0
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types++
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	if types < 12 {
		t.Errorf("exposition has %d # TYPE families, want >= 12:\n%s", types, body)
	}

	for _, want := range []string{
		"nocd_jobs_submitted_total 2",
		"nocd_jobs_completed_total 2",
		"nocd_computes_total 1",
		"nocd_cache_hits_total 1",
		"nocd_cache_misses_total 1",
		"nocd_cache_entries 1",
		"nocd_dedup_total 0",
		"nocd_jobs_running 0",
		"nocd_queue_depth 0",
		"nocd_jobs_inflight 0",
		"nocd_sse_subscribers 0",
		"nocd_evaluations_total ",
		`nocd_http_requests_total{code="200"} `,
		`nocd_http_requests_total{code="202"} 1`,
		`nocd_search_evaluations_total{engine="SA"} `,
		`nocd_search_accepted_total{engine="SA"} `,
		`nocd_search_rejected_total{engine="SA"} `,
		`nocd_search_restarts_total{engine="SA"} 1`,
		`nocd_job_duration_seconds_bucket{model="CWM",le="+Inf"} 1`,
		`nocd_job_duration_seconds_count{model="CWM"} 1`,
		"# TYPE nocd_job_duration_seconds histogram",
		"# TYPE nocd_jobs_submitted_total counter",
		"# TYPE nocd_queue_depth gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// promValues parses the unlabelled samples of an exposition body into a
// name → value map.
func promValues(t *testing.T, body string) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		f := strings.Fields(line)
		if strings.HasPrefix(line, "#") || len(f) != 2 || strings.Contains(f[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		m[f[0]] = v
	}
	return m
}

// TestMetricsFreshServerZero pins the service counters on a fresh
// server: every job, cache and pool series is exposed and reads 0.
func TestMetricsFreshServerZero(t *testing.T) {
	_, ts := testServer(t, Config{})
	_, body := getBody(t, ts.URL+"/metrics")
	m := promValues(t, body)
	for _, key := range []string{"nocd_cache_entries", "nocd_cache_hits_total", "nocd_cache_misses_total",
		"nocd_computes_total", "nocd_jobs_canceled_total", "nocd_jobs_completed_total",
		"nocd_jobs_failed_total", "nocd_queue_depth", "nocd_jobs_rejected_total",
		"nocd_jobs_running", "nocd_jobs_submitted_total"} {
		if v, ok := m[key]; !ok || v != 0 {
			t.Errorf("fresh server: %s = %v (exposed %v), want 0", key, v, ok)
		}
	}
}

var hexID = regexp.MustCompile(`^[0-9a-f]{16}$`)

func TestRequestIDPropagation(t *testing.T) {
	_, ts := testServer(t, Config{})

	// Client-supplied ID: echoed on the response and stamped on the job.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"demo":true,"mesh":"2x2","model":"cwm","method":"sa","seed":21}`))
	req.Header.Set(obs.RequestIDHeader, "rid-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "rid-test-1" {
		t.Errorf("POST echoed %q, want rid-test-1", got)
	}
	if st.RequestID != "rid-test-1" {
		t.Errorf("job status request_id = %q, want rid-test-1", st.RequestID)
	}

	// A status poll is its own request: the response echoes a fresh
	// minted ID, while the body keeps the submitting request's ID.
	final := pollUntil(t, ts, st.ID, StateSucceeded)
	if final.RequestID != "rid-test-1" {
		t.Errorf("polled status request_id = %q, want rid-test-1", final.RequestID)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); !hexID.MatchString(got) {
		t.Errorf("GET minted request id %q, want 16 hex chars", got)
	}

	// No header: the middleware mints one on every route, DELETE included.
	_, st2 := postJob(t, ts, `{"demo":true,"mesh":"2x2","model":"cwm","method":"sa","seed":22}`)
	if st2.RequestID == "" || !hexID.MatchString(st2.RequestID) {
		t.Errorf("minted job request_id = %q, want 16 hex chars", st2.RequestID)
	}
	del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st2.ID, nil)
	del.Header.Set(obs.RequestIDHeader, "rid-cancel")
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "rid-cancel" {
		t.Errorf("DELETE echoed %q, want rid-cancel", got)
	}
}

// TestSSECarriesTelemetryAndRequestID checks the events stream end to
// end: progress events carry the submitting request's ID and the
// accepted/rejected counters, and the final done event's status has the
// per-engine telemetry block.
func TestSSECarriesTelemetryAndRequestID(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"demo":true,"mesh":"2x2","model":"cdcm","method":"sa",
			"temp_steps":300,"moves_per_temp":400,"stall_steps":300}`))
	req.Header.Set(obs.RequestIDHeader, "rid-sse")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	stream, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	var sawCounters bool
	var done *Event
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		if ev.RequestID != "rid-sse" {
			t.Fatalf("event request_id = %q, want rid-sse: %+v", ev.RequestID, ev)
		}
		switch ev.Type {
		case "progress":
			if ev.Progress.Accepted+ev.Progress.Rejected > 0 {
				sawCounters = true
			}
			if ev.Progress.Accepted < 0 || ev.Progress.Rejected < 0 ||
				ev.Progress.Accepted+ev.Progress.Rejected > ev.Progress.Evaluations {
				t.Fatalf("implausible progress counters: %+v", ev.Progress)
			}
		case "done":
			done = &ev
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawCounters {
		t.Error("no progress event carried accepted/rejected counters")
	}
	if done == nil || done.Job == nil {
		t.Fatal("stream ended without a done event")
	}
	tel := done.Job.Telemetry
	if tel == nil || len(tel.Engines) == 0 {
		t.Fatalf("done status has no engine telemetry: %+v", done.Job)
	}
	sa := tel.Engines[0]
	if sa.Engine != "SA" || sa.Evaluations <= 0 || sa.Snapshots <= 0 ||
		sa.Accepted+sa.Rejected <= 0 || sa.Accepted+sa.Rejected > sa.Evaluations {
		t.Errorf("implausible SA telemetry aggregate: %+v", sa)
	}
	if tel.Spans == nil {
		t.Error("computed terminal job has no phase spans")
	}

	// The same counters flowed into the engine-labeled registry series.
	var b strings.Builder
	if err := s.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`nocd_search_evaluations_total{engine="SA"} `,
		`nocd_search_restarts_total{engine="SA"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("registry missing %q after SSE job", want)
		}
	}
}

// TestTelemetrySpansFakeClock pins the whole timing pipeline on a step
// clock: the compute path reads Config.Now exactly six times (submit,
// start, and the build/search/price marks, then finish), so every span is
// exactly one fake second and the job-duration histogram lands in a known
// bucket. No HTTP here — the access-log middleware would consume ticks.
func TestTelemetrySpansFakeClock(t *testing.T) {
	clock := &stepClock{t: time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)}
	s := New(Config{Workers: 1, Now: clock.Now})
	t.Cleanup(func() { s.Shutdown(t.Context()) })

	j, err := s.Submit(&Request{Demo: true, Mesh: "2x2", Model: "cwm", Method: "sa", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	st := j.Wait()
	if st.State != StateSucceeded {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	if st.Telemetry == nil || st.Telemetry.Spans == nil {
		t.Fatalf("no spans on terminal computed job: %+v", st.Telemetry)
	}
	want := SpansJSON{QueuedMS: 1000, BuildMS: 1000, SearchMS: 1000, PriceMS: 1000}
	if *st.Telemetry.Spans != want {
		t.Errorf("spans = %+v, want %+v", *st.Telemetry.Spans, want)
	}
	if st.ElapsedMS != 4000 {
		t.Errorf("elapsed = %vms, want 4000 (start to finish, four ticks)", st.ElapsedMS)
	}

	// The histogram observed the same start-to-finish four seconds.
	var b strings.Builder
	if err := s.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`nocd_job_duration_seconds_bucket{model="CWM",le="2.5"} 0`,
		`nocd_job_duration_seconds_bucket{model="CWM",le="5"} 1`,
		`nocd_job_duration_seconds_sum{model="CWM"} 4`,
		`nocd_job_duration_seconds_count{model="CWM"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("histogram missing %q:\n%s", want, b.String())
		}
	}
}

// TestCachedReplayByteIdenticalWithTelemetry re-pins the determinism
// contract under the observability layer: telemetry and request IDs live
// in the status envelope only, so a cache-hit replay serves byte-identical
// result JSON and carries no telemetry of its own.
func TestCachedReplayByteIdenticalWithTelemetry(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := `{"demo":true,"mesh":"3x3","model":"cdcm","method":"sa","seed":5}`

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set(obs.RequestIDHeader, "rid-first")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	first := pollUntil(t, ts, st.ID, StateSucceeded)
	if first.Telemetry == nil {
		t.Fatal("computed job has no telemetry")
	}

	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	req2.Header.Set(obs.RequestIDHeader, "rid-second")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	var replay JobStatus
	if err := json.NewDecoder(resp2.Body).Decode(&replay); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if !replay.CacheHit || replay.State != StateSucceeded {
		t.Fatalf("not a cache hit: %+v", replay)
	}
	if !bytes.Equal(first.Result, replay.Result) {
		t.Errorf("cached result differs:\n%s\n%s", first.Result, replay.Result)
	}
	if replay.Telemetry != nil {
		t.Errorf("cache-hit job carries telemetry: %+v", replay.Telemetry)
	}
	if replay.RequestID != "rid-second" {
		t.Errorf("replay request_id = %q, want rid-second", replay.RequestID)
	}
}
