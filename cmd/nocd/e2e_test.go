package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestNocdBinaryEndToEnd builds the real nocd binary and drives it over
// HTTP the way an operator would: liveness, one job per model family
// (scalar CDCM, Pareto front, resilience, tier-B surrogate SA and
// bound-filtered hill) run to completion, cache hits on resubmission,
// the Prometheus exposition, and a clean exit on SIGTERM.
func TestNocdBinaryEndToEnd(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "nocd")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var logs lockedBuf
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2")
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	stopped := false
	defer func() {
		if !stopped {
			cmd.Process.Kill()
			<-exited
		}
	}()

	// The daemon logs the address it bound before it serves.
	listening := regexp.MustCompile(`listening on (\S+) `)
	var url string
	for deadline := time.Now().Add(10 * time.Second); url == ""; time.Sleep(20 * time.Millisecond) {
		if m := listening.FindStringSubmatch(logs.String()); m != nil {
			url = "http://" + m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon never listened:\n%s", logs.String())
		}
	}
	if body := httpGet(t, url+"/healthz"); body == "" {
		t.Fatal("empty healthz")
	}

	for _, tc := range []struct {
		name, req string
		// want are patterns the finished job's status must match.
		want     []string
		cacheHit bool
	}{
		{"cdcm/sa", `{"demo": true, "mesh": "3x3", "model": "cdcm", "method": "sa", "seed": 7}`,
			nil, true},
		// "components" only appears inside front points, so it proves
		// the front is non-empty.
		{"pareto", `{"demo": true, "mesh": "3x3", "model": "pareto", "seed": 7, "temp_steps": 8,
			"moves_per_temp": 10, "restarts": 4}`,
			[]string{`"front_axes"`, `"components"`}, true},
		// Rate 0.15 / seed 2 fails three links of the 3x3.
		{"resilience", `{"demo": true, "mesh": "3x3", "model": "resilience", "method": "sa", "seed": 7,
			"temp_steps": 8, "moves_per_temp": 10, "fault_rate": 0.15, "fault_seed": 2}`,
			[]string{`"resilience"`, `"score"`, `"impacts"`}, true},
		{"surrogate", `{"demo": true, "mesh": "3x3", "model": "cdcm", "method": "sa", "seed": 7,
			"surrogate": true, "surrogate_samples": 8, "temp_steps": 8, "moves_per_temp": 10}`,
			[]string{`"surrogate_evals": *[1-9]`}, false},
		{"hill", `{"demo": true, "mesh": "3x3", "model": "cdcm", "method": "hill", "seed": 7}`,
			[]string{`"bound_skips": *[1-9]`}, false},
	} {
		id := jobID(t, postJob(t, url, tc.req))
		var status string
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
			status = httpGet(t, url+"/v1/jobs/"+id)
			if regexp.MustCompile(`"state": *"succeeded"`).MatchString(status) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: job never succeeded: %s", tc.name, status)
			}
		}
		for _, w := range tc.want {
			if !regexp.MustCompile(w).MatchString(status) {
				t.Errorf("%s: result lacks %s: %s", tc.name, w, status)
			}
		}
		if tc.cacheHit {
			if again := postJob(t, url, tc.req); !regexp.MustCompile(`"cache_hit": *true`).MatchString(again) {
				t.Errorf("%s: resubmission was not a cache hit: %s", tc.name, again)
			}
		}
	}

	// The exposition must be well-formed Prometheus text carrying the
	// daemon's full series inventory, the tier counter families included.
	metrics := httpGet(t, url+"/metrics")
	lines := strings.Split(strings.TrimSuffix(metrics, "\n"), "\n")
	types := 0
	sample := regexp.MustCompile(`^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? (\+Inf|-Inf|NaN|[-+0-9.eE]+)$`)
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "# TYPE "):
			types++
		case strings.HasPrefix(l, "#"):
		case !sample.MatchString(l):
			t.Errorf("malformed exposition line: %q", l)
		}
	}
	if types < 12 {
		t.Errorf("%d exposition families, want at least 12", types)
	}
	for _, series := range []string{
		"nocd_jobs_submitted_total", "nocd_jobs_completed_total", "nocd_computes_total",
		"nocd_cache_hits_total", "nocd_cache_misses_total", "nocd_dedup_total",
		"nocd_cache_entries", "nocd_queue_depth", "nocd_jobs_running", "nocd_sse_subscribers",
		"nocd_evaluations_total", "nocd_http_requests_total", "nocd_job_duration_seconds_bucket",
		"nocd_search_evaluations_total", "nocd_search_accepted_total", "nocd_search_rejected_total",
		"nocd_search_exact_evals_total", "nocd_search_bound_skips_total", "nocd_search_surrogate_evals_total",
	} {
		if !regexp.MustCompile(`(?m)^` + series).MatchString(metrics) {
			t.Errorf("missing series %s", series)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		stopped = true
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v\n%s", err, logs.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}
}

// httpGet returns the body of a GET that must answer 2xx.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode >= 300 {
		t.Fatalf("GET %s: status %d, %v: %s", url, resp.StatusCode, err, body)
	}
	return string(body)
}

// postJob submits a job request and returns the response body, which
// must answer 2xx.
func postJob(t *testing.T, url, req string) string {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode >= 300 {
		t.Fatalf("POST %s: status %d, %v: %s", req, resp.StatusCode, err, body)
	}
	return string(body)
}

// jobID extracts the job id of a submission response.
func jobID(t *testing.T, body string) string {
	t.Helper()
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil || st.ID == "" {
		t.Fatalf("no job id in %s: %v", body, err)
	}
	return st.ID
}
