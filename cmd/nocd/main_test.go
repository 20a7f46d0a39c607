package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// startDaemon runs the daemon exactly as main wires it (minus the signal
// registration) and returns its base URL, the signal channel and the exit
// channel.
func startDaemon(t *testing.T) (url string, stop chan os.Signal, exited chan error) {
	t.Helper()
	stop = make(chan os.Signal, 1)
	ready := make(chan string, 1)
	exited = make(chan error, 1)
	go func() {
		exited <- run("127.0.0.1:0", "", "info", "text", 2, 16, 32, 30*time.Second, stop, io.Discard, ready)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, stop, exited
	case err := <-exited:
		t.Fatalf("daemon died on startup: %v", err)
		return "", nil, nil
	}
}

func postJSON(t *testing.T, url, body string) service.JobStatus {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("POST: status %d", resp.StatusCode)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDaemonEndToEndAndSIGTERMDrain(t *testing.T) {
	url, stop, exited := startDaemon(t)

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// One fast end-to-end job.
	st := postJSON(t, url, `{"demo":true,"mesh":"2x2","model":"cwm","method":"sa","seed":3}`)
	deadline := time.Now().Add(30 * time.Second)
	for st.State != service.StateSucceeded {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		r, err := http.Get(url + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		time.Sleep(2 * time.Millisecond)
	}
	if len(st.Result) == 0 {
		t.Fatal("succeeded job without result")
	}

	// Put a few-hundred-millisecond job in flight, then SIGTERM: the
	// daemon must drain it (service.TestShutdownDrainsInFlightJobs pins
	// that it completes rather than dies) and exit cleanly while busy.
	postJSON(t, url, `{"demo":true,"mesh":"2x2","model":"cdcm","method":"sa",
		"temp_steps":300,"moves_per_temp":400,"stall_steps":300}`)
	stop <- syscall.SIGTERM
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("daemon still serving after SIGTERM")
	}
}

func TestDaemonRejectsBadListenAddr(t *testing.T) {
	stop := make(chan os.Signal, 1)
	if err := run("256.256.256.256:1", "", "info", "text", 1, 1, 1, time.Second, stop, io.Discard, nil); err == nil {
		t.Fatal("invalid listen address accepted")
	}
}

func TestDaemonRejectsBadPprofAddr(t *testing.T) {
	stop := make(chan os.Signal, 1)
	if err := run("127.0.0.1:0", "256.256.256.256:1", "info", "text", 1, 1, 1, time.Second, stop, io.Discard, nil); err == nil {
		t.Fatal("invalid pprof address accepted")
	}
}

// lockedBuf is a mutex-guarded log sink: run writes from the daemon
// goroutine, the test reads after ready fires.
type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestDaemonServesPprof boots with -pprof bound to an OS-assigned port
// (no probe-close-rebind race) and checks the profile index answers on
// the address the daemon logged.
func TestDaemonServesPprof(t *testing.T) {
	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	exited := make(chan error, 1)
	var logw lockedBuf
	go func() {
		exited <- run("127.0.0.1:0", "127.0.0.1:0", "warn", "text", 1, 4, 8, 30*time.Second, stop, &logw, ready)
	}()
	select {
	case <-ready:
	case err := <-exited:
		t.Fatalf("daemon died on startup: %v", err)
	}
	// run logs the bound pprof address before signalling ready.
	m := regexp.MustCompile(`pprof on (http://[^/]+)/`).FindStringSubmatch(logw.String())
	if m == nil {
		t.Fatalf("pprof address not logged:\n%s", logw.String())
	}
	resp, err := http.Get(m[1] + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("pprof endpoint: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}
	stop <- syscall.SIGTERM
	if err := <-exited; err != nil {
		t.Fatal(err)
	}
}

func TestDaemonServesMetrics(t *testing.T) {
	url, stop, exited := startDaemon(t)

	// Default: Prometheus text exposition.
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus content-type = %q", ct)
	}
	if !strings.Contains(string(body), "# TYPE nocd_jobs_submitted_total counter") {
		t.Errorf("prometheus exposition missing nocd_jobs_submitted_total:\n%s", body)
	}

	if !regexp.MustCompile(`(?m)^nocd_jobs_submitted_total 0$`).Match(body) {
		t.Errorf("prometheus exposition lacks the nocd_jobs_submitted_total sample:\n%s", body)
	}
	stop <- syscall.SIGTERM
	if err := <-exited; err != nil {
		t.Fatal(err)
	}
}

func TestDaemonRejectsBadLogFlags(t *testing.T) {
	stop := make(chan os.Signal, 1)
	if err := run("127.0.0.1:0", "", "loud", "text", 1, 1, 1, time.Second, stop, io.Discard, nil); err == nil {
		t.Fatal("invalid log level accepted")
	}
	if err := run("127.0.0.1:0", "", "info", "xml", 1, 1, 1, time.Second, stop, io.Discard, nil); err == nil {
		t.Fatal("invalid log format accepted")
	}
}
