package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 0.7, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 111.2; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

// TestWritePrometheusGolden pins the full exposition rendering:
// family sorting, label sorting and escaping, scrape-time functions,
// cumulative histogram buckets with +Inf, _sum and _count.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	jobs := r.Counter("test_jobs_total", "jobs handled")
	jobs.Add(3)
	depth := r.Gauge("test_depth", "queue depth")
	depth.Set(2)
	r.GaugeFunc("test_cache_entries", "cache entries", func() float64 { return 7 })
	ev := r.CounterVec("test_evals_total", "evaluations by engine", "engine")
	ev.With("SA").Add(10)
	ev.With("ES").Add(4)
	ev.With(`we"ird\`).Add(1)
	h := r.HistogramVec("test_duration_seconds", "latency by model", "model", []float64{1, 5})
	h.With("CWM").Observe(0.5)
	h.With("CWM").Observe(4)
	h.With("CWM").Observe(99)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_cache_entries cache entries
# TYPE test_cache_entries gauge
test_cache_entries 7
# HELP test_depth queue depth
# TYPE test_depth gauge
test_depth 2
# HELP test_duration_seconds latency by model
# TYPE test_duration_seconds histogram
test_duration_seconds_bucket{model="CWM",le="1"} 1
test_duration_seconds_bucket{model="CWM",le="5"} 2
test_duration_seconds_bucket{model="CWM",le="+Inf"} 3
test_duration_seconds_sum{model="CWM"} 103.5
test_duration_seconds_count{model="CWM"} 3
# HELP test_evals_total evaluations by engine
# TYPE test_evals_total counter
test_evals_total{engine="ES"} 4
test_evals_total{engine="SA"} 10
test_evals_total{engine="we\"ird\\"} 1
# HELP test_jobs_total jobs handled
# TYPE test_jobs_total counter
test_jobs_total 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_x_total", "", "k")
	for _, k := range []string{"c", "a", "b"} {
		v.With(k).Inc()
	}
	var first string
	for i := 0; i < 5; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.String()
		} else if b.String() != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, b.String(), first)
		}
	}
	if !strings.Contains(first, `test_x_total{k="a"} 1`) {
		t.Fatalf("missing sorted child:\n%s", first)
	}
}

func TestRegistryPanicsOnBadNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "")
	for _, fn := range []func(){
		func() { r.Counter("ok_total", "") },              // duplicate
		func() { r.Counter("9bad", "") },                  // leading digit
		func() { r.Counter("bad name", "") },              // space
		func() { r.Counter("", "") },                      // empty
		func() { r.CounterVec("v_total", "", "") },        // missing label
		func() { r.CounterVec("v2_total", "", "l abel") }, // bad label
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("registration did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestConcurrentUpdates exercises the atomic paths under the race
// detector; values must still add up exactly.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_c_total", "")
	v := r.CounterVec("test_v_total", "", "k")
	h := r.Histogram("test_h", "", []float64{1, 10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				v.With("a").Inc()
				h.Observe(0.5)
			}
		}()
	}
	// Concurrent scrapes must not race with updates.
	for i := 0; i < 4; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != 8000 || v.With("a").Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%d v=%d h=%d", c.Value(), v.With("a").Value(), h.Count())
	}
	if got, want := h.Sum(), 4000.0; math.Abs(got-want) > 1e-6 {
		t.Fatalf("histogram sum = %g, want %g", got, want)
	}
}

// TestMetricUpdatesZeroAlloc pins the hot-path contract the hotpath
// analyzer enforces statically: Counter.Add/Inc, Gauge ops and
// Histogram.Observe never allocate.
func TestMetricUpdatesZeroAlloc(t *testing.T) {
	var c Counter
	var g Gauge
	h := NewHistogram(DefaultDurationBuckets)
	if allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(2)
		h.Observe(0.42)
	}); allocs != 0 {
		t.Fatalf("metric updates allocate %.1f objects/run, want 0", allocs)
	}
}
