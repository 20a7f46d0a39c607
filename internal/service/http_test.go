package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, JobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding job status: %v", err)
		}
	}
	return resp, st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

func pollUntil(t *testing.T, ts *httptest.Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, st := getStatus(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d", id, code)
		}
		if st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

func TestHTTPSubmitPollResult(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, st := postJob(t, ts, `{"demo":true,"mesh":"2x2","model":"cwm","method":"sa","seed":7}`)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	if st.ID == "" || st.Key == "" {
		t.Fatalf("empty id/key: %+v", st)
	}
	final := pollUntil(t, ts, st.ID, StateSucceeded)
	var res Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatalf("result decode: %v", err)
	}
	if res.Seed != 7 || res.Model != "CWM" || len(res.Mapping) != 4 {
		t.Errorf("result: %+v", res)
	}

	// Resubmission of the identical instance is served from the cache
	// with byte-identical result JSON.
	resp2, st2 := postJob(t, ts, `{"demo":true,"mesh":"2x2","model":"cwm","method":"sa","seed":7}`)
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("cache hit status %d, want 200", resp2.StatusCode)
	}
	if !st2.CacheHit || st2.State != StateSucceeded {
		t.Errorf("not a cache hit: %+v", st2)
	}
	if !bytes.Equal(final.Result, st2.Result) {
		t.Errorf("cached result differs:\n%s\n%s", final.Result, st2.Result)
	}
}

func TestHTTPBadInputAnd404(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"unknown_field":1}`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},                               // no app
		{`{"demo":true,"mesh":"1x1"}`, http.StatusBadRequest},       // does not fit
		{`{"demo":true,"tech":"90nm"}`, http.StatusBadRequest},      // unknown tech
		{`{"demo":true,"method":"simplex"}`, http.StatusBadRequest}, // unknown method
		{`{"demo":true,"mesh":"axb"}`, http.StatusBadRequest},       // bad spec
		{`{"demo":true,"app":{"cores":[]}}`, http.StatusBadRequest}, // app+demo
	}
	for _, tc := range cases {
		resp, _ := postJob(t, ts, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("POST %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}

	if code, _ := getStatus(t, ts, "j-999999"); code != http.StatusNotFound {
		t.Errorf("GET unknown job: %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j-999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job: %d, want 404", resp.StatusCode)
	}
	if code, _ := getStatus(t, ts, "j-999999/events"); code != http.StatusNotFound {
		t.Errorf("GET events of unknown job: %d, want 404", code)
	}

	// An oversized body is a size rejection (413), not malformed input.
	huge := `{"demo":true,"mesh":"` + strings.Repeat(" ", maxRequestBytes+1) + `2x2"}`
	resp, _ = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(huge))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHTTPCancelRunningJob(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	_, st := postJob(t, ts, `{"demo":true,"mesh":"3x3","model":"cdcm","method":"sa",
		"temp_steps":1048576,"moves_per_temp":4096,"stall_steps":1048576}`)
	pollUntil(t, ts, st.ID, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	final := pollUntil(t, ts, st.ID, StateCanceled)
	if final.Result != nil {
		t.Error("canceled job carries a result")
	}
}

func TestHTTPQueueFull(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueSize: 1})
	slow := func(seed int) string {
		return fmt.Sprintf(`{"demo":true,"mesh":"3x3","model":"cdcm","seed":%d,
			"temp_steps":1048576,"moves_per_temp":4096,"stall_steps":1048576}`, seed)
	}
	_, st1 := postJob(t, ts, slow(1))
	pollUntil(t, ts, st1.ID, StateRunning)
	_, st2 := postJob(t, ts, slow(2))
	resp, _ := postJob(t, ts, slow(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("full queue: status %d, want 429", resp.StatusCode)
	}
	for _, id := range []string{st2.ID, st1.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

func TestHTTPEventsStream(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	// A few hundred milliseconds of compute with one progress snapshot
	// per temperature step: the stream reliably attaches while the job
	// is still running and sees both event kinds.
	_, st := postJob(t, ts, `{"demo":true,"mesh":"2x2","model":"cdcm","method":"sa",
		"temp_steps":300,"moves_per_temp":400,"stall_steps":300}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	var sawProgress, sawDone bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		switch ev.Type {
		case "progress":
			sawProgress = true
			if ev.Progress == nil || ev.Progress.Engine == "" {
				t.Errorf("empty progress event: %+v", ev)
			}
		case "done":
			sawDone = true
			if ev.Job == nil || !ev.Job.State.Terminal() {
				t.Errorf("done event without terminal job: %+v", ev)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if !sawDone {
		t.Error("stream ended without a done event")
	}
	if !sawProgress {
		t.Error("stream carried no progress events")
	}

	// Subscribing to an already-finished job yields an immediate done.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, err := readAll(resp2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, `"type":"done"`) {
		t.Errorf("terminal job stream missing done event: %q", body)
	}
}

func readAll(resp *http.Response) (string, error) {
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	return b.String(), sc.Err()
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	_, st := postJob(t, ts, `{"demo":true,"mesh":"2x2","model":"cwm"}`)
	pollUntil(t, ts, st.ID, StateSucceeded)

	_, metrics := getBody(t, ts.URL+"/metrics")
	m := promValues(t, metrics)
	if m["nocd_jobs_submitted_total"] < 1 || m["nocd_jobs_completed_total"] < 1 || m["nocd_computes_total"] < 1 {
		t.Errorf("metrics implausible: %v", m)
	}
	for _, key := range []string{"nocd_cache_entries", "nocd_cache_hits_total", "nocd_cache_misses_total",
		"nocd_jobs_canceled_total", "nocd_jobs_failed_total", "nocd_queue_depth", "nocd_jobs_rejected_total",
		"nocd_jobs_running"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
}

func TestHTTPShuttingDownReturns503(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJob(t, ts, `{"demo":true}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", resp.StatusCode)
	}
}

// lockedBuffer is an io.Writer the server's logger may write from any
// goroutine while the test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestPanickingJobFailsAndDaemonServes makes one job's exploration panic
// with a follower attached: both jobs fail with an error naming the
// panic, the panic is counted and logged with its stack at error level,
// the in-flight entry and running count are released, nothing is
// cached, and the daemon keeps serving — the same request computes
// afresh once the fault is gone, and /healthz answers.
func TestPanickingJobFailsAndDaemonServes(t *testing.T) {
	release := make(chan struct{})
	exploreHook = func(in *Instance) {
		if in.Opts.Seed == 66 {
			<-release
			panic("injected fault")
		}
	}
	defer func() { exploreHook = nil }()
	var logs lockedBuffer
	s, ts := testServer(t, Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(&logs, nil))})

	const body = `{"demo":true,"mesh":"2x2","model":"cwm","seed":66}`
	_, leader := postJob(t, ts, body)
	pollUntil(t, ts, leader.ID, StateRunning)
	_, follower := postJob(t, ts, body)
	close(release)
	for _, id := range []string{leader.ID, follower.ID} {
		st := pollUntil(t, ts, id, StateFailed)
		if !strings.Contains(st.Error, "panicked: injected fault") {
			t.Fatalf("job %s error %q does not name the panic", id, st.Error)
		}
	}
	exploreHook = nil

	_, metrics := getBody(t, ts.URL+"/metrics")
	m := promValues(t, metrics)
	if m["nocd_dedup_total"] != 1 || m["nocd_computes_total"] != 1 {
		t.Fatalf("the second submission did not follow the first: %v dedups, %v computes",
			m["nocd_dedup_total"], m["nocd_computes_total"])
	}
	if m["nocd_job_panics_total"] != 1 || m["nocd_jobs_failed_total"] != 2 || m["nocd_jobs_running"] != 0 ||
		m["nocd_jobs_inflight"] != 0 || m["nocd_cache_entries"] != 0 {
		t.Fatalf("after the panic: panics %v, failed %v, running %v, inflight %v, cache entries %v",
			m["nocd_job_panics_total"], m["nocd_jobs_failed_total"], m["nocd_jobs_running"],
			m["nocd_jobs_inflight"], m["nocd_cache_entries"])
	}
	if l := logs.String(); !strings.Contains(l, "level=ERROR msg=\"job panicked\"") ||
		!strings.Contains(l, "runtime/debug.Stack") || !strings.Contains(l, "job_id="+leader.ID) {
		t.Fatalf("no error-level panic log with a stack:\n%s", l)
	}

	_, again := postJob(t, ts, body)
	if st := pollUntil(t, ts, again.ID, StateSucceeded); st.CacheHit {
		t.Fatalf("the failed compute was cached: %+v", st)
	}
	if got := s.m.panics.Load(); got != 1 {
		t.Fatalf("%d panics counted, want 1", got)
	}
	resp, hb := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(hb, "ok") {
		t.Fatalf("healthz after the panic: %d %q", resp.StatusCode, hb)
	}
}
