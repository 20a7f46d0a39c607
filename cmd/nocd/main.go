// Command nocd is the NoC mapping daemon: it serves the exploration
// framework over an HTTP/JSON API (see internal/service) with a bounded
// job queue, an LRU cache of results keyed by canonical instance hash,
// cancellable searches and progress streaming.
//
//	nocd -addr :8080 &
//	curl -XPOST -d '{"demo":true,"mesh":"2x2","method":"sa","seed":7}' localhost:8080/v1/jobs
//	curl localhost:8080/v1/jobs/j-000001
//	curl localhost:8080/v1/jobs/j-000001/events     # SSE progress stream
//	curl -XDELETE localhost:8080/v1/jobs/j-000001   # cancel
//	curl localhost:8080/healthz
//	curl localhost:8080/metrics                     # Prometheus text exposition
//
// Every request carries an X-Request-ID (client-supplied or minted) that
// is echoed on the response, stamped on the job's status and SSE events,
// and attached to every structured log line; -log-level and -log-format
// tune the slog output on stderr.
//
// On SIGTERM/SIGINT the daemon drains: submissions are refused, queued
// and running jobs finish (up to -drain-timeout, then they are canceled),
// and the process exits cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only when -pprof is set
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", par.DefaultWorkers(), "compute-pool goroutines shared by all jobs")
		queue     = flag.Int("queue", 64, "bounded job-queue capacity (full queue rejects with 429)")
		cacheSize = flag.Int("cache", 256, "result-cache entries (LRU, keyed by canonical instance hash)")
		drain     = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget before in-flight jobs are canceled")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables")
		logLevel  = flag.String("log-level", "info", "structured-log level: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "structured-log format: text or json")
	)
	flag.Parse()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(*addr, *pprofAddr, *logLevel, *logFormat, *workers, *queue, *cacheSize, *drain, stop, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "nocd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a signal arrives on stop, then
// drains and returns. When ready is non-nil it receives the bound listen
// address once the server accepts connections (tests use it to pick a
// free port with addr "127.0.0.1:0"). A non-empty pprofAddr serves the
// net/http/pprof handlers on a second, separate listener, so profiling
// stays off the API port (and off by default).
func run(addr, pprofAddr, logLevel, logFormat string, workers, queue, cacheSize int, drainTimeout time.Duration,
	stop <-chan os.Signal, logw io.Writer, ready chan<- string) error {

	logger, err := obs.NewLogger(logw, logLevel, logFormat)
	if err != nil {
		return err
	}
	svc := service.New(service.Config{Workers: workers, QueueSize: queue, CacheSize: cacheSize,
		Logger: logger})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if pprofAddr != "" {
		pln, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pln.Close()
		// DefaultServeMux carries the pprof registrations from the blank
		// import; nothing else is registered on it.
		go http.Serve(pln, nil)
		fmt.Fprintf(logw, "nocd: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}
	httpSrv := &http.Server{
		Handler: svc.Handler(),
		// Bound slow-header connections so they cannot pin goroutines
		// and file descriptors forever; no Read/WriteTimeout because the
		// events endpoint streams for a job's whole lifetime.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(logw, "nocd: listening on %s (workers=%d queue=%d cache=%d)\n",
		ln.Addr(), workers, queue, cacheSize)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case sig := <-stop:
		fmt.Fprintf(logw, "nocd: %v: draining (timeout %s)\n", sig, drainTimeout)
	case err := <-serveErr:
		svc.Shutdown(context.Background())
		return fmt.Errorf("serve: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(logw, "nocd: http shutdown: %v\n", err)
	}
	if err := svc.Shutdown(ctx); err != nil {
		fmt.Fprintf(logw, "nocd: drain timeout, in-flight jobs canceled: %v\n", err)
	} else {
		fmt.Fprintln(logw, "nocd: drained cleanly")
	}
	return nil
}
