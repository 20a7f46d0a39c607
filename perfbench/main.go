// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload for a fixed time and prints, as the last line of
// standard output, a JSON object with the correctness verdict, the
// attempted and failed job counts and the metrics:
//
//	go run . --workload table2 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of spec.json; with
// --trace 1 it reports the per-layer metrics instead, taken from spans
// recorded around the calls into each layer, plus the layer probes.
// perfbench/run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its inputs and
// infrastructure; setup_s reports the median.
const setupRepeats = 7

// workload is one benchmark workload: setup builds the generated inputs
// (and any infrastructure), run measures them for a window.
type workload interface {
	// setup builds the inputs for seed. It is called setupRepeats times;
	// only the last result is run, the others are closed.
	setup(seed int64) (instance, error)
}

// instance is a set-up workload ready to measure.
type instance interface {
	// run measures for the given window and checks every output. A nil
	// tracer runs untraced. Without withQuality the window may skip the
	// quality set, which only the end-to-end metrics report.
	run(window time.Duration, tr *tracer, withQuality bool) (*outcome, error)
	// close releases what setup built (servers, listeners).
	close() error
}

var workloads = map[string]workload{
	"table2":   table2Workload{},
	"scan":     scanWorkload{},
	"nocd-mix": mixWorkload{},
}

// report is the benchmark's final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: table2, scan or nocd-mix")
	seed := flag.Int64("seed", 1, "workload seed: the generated inputs depend on it alone")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run runs one workload and writes the human-readable notes and the
// final JSON line to w.
func run(w io.Writer, name string, seed int64, seconds int, traced bool) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	ws, ok := sp.workload(name)
	if !ok {
		return fmt.Errorf("workload %q missing from spec.json", name)
	}
	window := time.Duration(seconds) * time.Second

	inst, setupS, err := setupMedian(wl, seed)
	if err != nil {
		return err
	}
	defer inst.close()

	var rep *report
	if traced {
		rep, err = runTraced(w, name, seed, inst, window, ws)
	} else {
		rep, err = runUntraced(w, inst, window, ws, setupS)
	}
	if err != nil {
		return err
	}
	if err := inst.close(); err != nil {
		return err
	}
	names := sp.EndToEnd
	if traced {
		names = sp.PerLayer
	}
	for _, m := range names {
		if _, ok := rep.Metrics[m.Name]; !ok {
			return fmt.Errorf("workload %s did not produce metric %s", name, m.Name)
		}
		rep.Metrics[m.Name] = metric{Value: rep.Metrics[m.Name].Value, Unit: m.Unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// setupMedian sets the workload up setupRepeats times and keeps the last
// instance, reporting the median set-up time in seconds.
func setupMedian(w workload, seed int64) (instance, float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, median(times), nil
}

func runUntraced(w io.Writer, inst instance, window time.Duration, ws workloadSpec, setupS float64) (*report, error) {
	out, err := inst.run(window, nil, true)
	if err != nil {
		return nil, err
	}
	lat := summarize(out.latencies, ws.TailPercentile)
	fmt.Fprintf(w, "jobs=%d attempted=%d failed=%d failed_ratio=%.6f window_s=%.3f latency_tail=p%g over %d samples\n",
		out.jobs, out.attempted, out.failed, out.failedRatio(), out.elapsed.Seconds(), lat.tailPct, lat.n)
	for _, l := range out.notes {
		fmt.Fprintln(w, l)
	}
	q := out.quality
	m := map[string]metric{
		"setup_s":          {Value: setupS},
		"jobs_per_s":       {Value: out.jobsPerSecond()},
		"latency_p50_ms":   {Value: lat.p50},
		"latency_tail_ms":  {Value: lat.tail},
		"success_ratio":    {Value: 1 - out.failedRatio()},
		"texec_geomean_cy": {Value: q.texecGeomean},
		"enoc_geomean_j":   {Value: q.enocGeomean},
		"etr_pct":          {Value: q.etrPct},
		"ecs035_pct":       {Value: q.ecs035Pct},
		"ecs007_pct":       {Value: q.ecs007Pct},
		"alloc_mb_per_job": {Value: float64(out.allocBytes) / float64(max(out.jobs, 1)) / (1 << 20)},
		"max_rss_mb":       {Value: maxRSSMB()},
	}
	return &report{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: m}, nil
}

// runTraced splits the window: an untraced half gives the reference
// throughput, a traced half records spans and counters. The per-layer
// metrics come from the traced half and the layer probes; the tracing
// overhead is the throughput gap between the halves.
func runTraced(w io.Writer, name string, seed int64, inst instance, window time.Duration, ws workloadSpec) (*report, error) {
	plain, err := inst.run(window/2, nil, false)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	out, err := inst.run(window/2, tr, false)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	for k, v := range out.layers {
		m[k] = metric{Value: v}
	}
	probes, err := runProbes()
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		m[k] = metric{Value: v}
	}
	m["wormhole.run_us.small"] = metric{Value: probes["probe.run_scratch.small.ns_op"] / 1e3}
	m["wormhole.run_us.large"] = metric{Value: probes["probe.run_scratch.12x10.ns_op"] / 1e3}
	m["wormhole.run_allocs"] = metric{Value: probes["probe.run_scratch.12x10.allocs_op"]}
	m["wormhole.build_ms"] = metric{Value: probes["probe.new_simulator.12x10.ns_op"] / 1e6}
	m["core.cdcm_cost_us"] = metric{Value: probes["probe.cdcm_cost.12x10.ns_op"] / 1e3}
	m["core.cwm_swapdelta_ns"] = metric{Value: probes["probe.cwm_swapdelta.12x10.ns_op"]}
	ref := plain.jobsPerSecond()
	m["trace.overhead_pct"] = metric{Value: 100 * (ref - out.jobsPerSecond()) / ref}
	m["trace.spans"] = metric{Value: float64(tr.len())}
	lat := summarize(plain.latencies, ws.TailPercentile)
	m["e2e.latency_tail_percentile"] = metric{Value: lat.tailPct}
	m["e2e.latency_samples"] = metric{Value: float64(lat.n)}

	path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "spans=%d written to %s\n", tr.len(), path)
	for _, l := range out.notes {
		fmt.Fprintln(w, l)
	}
	failed := plain.failed + out.failed
	return &report{Correct: failed == 0, Attempted: plain.attempted + out.attempted,
		Failed: failed, Metrics: m}, nil
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memAllocated is the cumulative heap allocation of the process.
func memAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// sortedKeys returns a map's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
