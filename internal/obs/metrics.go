// Package obs is the daemon's stdlib-only observability layer: an
// atomic metrics registry with a Prometheus text-format exposition
// writer, structured logging built on log/slog, and HTTP middleware
// carrying request IDs and access logs.
//
// The package deliberately has no dependency outside the standard
// library and none on the rest of the repository, so every layer — the
// service, the search engines via core.Options.EvalCounter, the nocd
// daemon — can depend on it without cycles. Metric updates on the
// evaluation hot path are single atomic operations (Counter.Add,
// Histogram.Observe), annotated //nocvet:noalloc and pinned by
// testing.AllocsPerRun, so instrumentation never perturbs the
// allocation-free evaluator contract.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric backed by one atomic
// word. The zero value is ready to use; a Counter obtained from a
// Registry is additionally rendered by WritePrometheus.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Hot-path safe: one atomic add, no
// allocation, no lock.
//
//nocvet:noalloc
func (c *Counter) Add(n int64) {
	c.v.Add(n)
}

// Inc increments the counter by one.
//
//nocvet:noalloc
func (c *Counter) Inc() {
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, backed by one atomic word.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
//
//nocvet:noalloc
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
//
//nocvet:noalloc
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc increments the gauge by one.
//
//nocvet:noalloc
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge by one.
//
//nocvet:noalloc
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: counts per bucket, a total
// count and a running sum, all maintained with atomic operations so
// Observe is safe on the hot path. Bucket bounds are upper-inclusive
// like Prometheus ("le"), with an implicit +Inf bucket.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // one per bound; +Inf is count − Σbuckets
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
}

// DefaultDurationBuckets is a spread suitable for job latencies in
// seconds, from milliseconds to a minute.
var DefaultDurationBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// NewHistogram builds an unregistered histogram over the given bucket
// upper bounds, which must be strictly increasing and non-empty.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)),
	}
}

// Observe records one value. Hot-path safe: a bounded scan over the
// bucket bounds plus three atomic operations, no allocation, no lock.
//
//nocvet:noalloc
func (h *Histogram) Observe(v float64) {
	for i := range h.bounds {
		if v <= h.bounds[i] {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metric family types, as rendered on the # TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one registered metric name: its metadata plus either a set
// of label-keyed children or a read-at-scrape function.
type family struct {
	name     string
	help     string
	typ      string
	labelKey string // label name for vec families, "" otherwise

	read func() float64 // CounterFunc/GaugeFunc families

	mu       sync.Mutex
	keys     []string // child label values in creation order
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. All registration methods panic on duplicate
// or syntactically invalid names — wiring errors, caught at startup.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (r *Registry) register(name, help, typ, labelKey string, read func() float64) *family {
	if !validName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	if labelKey != "" && !validName(labelKey) {
		panic("obs: invalid label name " + strconv.Quote(labelKey))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	f := &family{name: name, help: help, typ: typ, labelKey: labelKey, read: read}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, typeCounter, "", nil)
	return f.counter("")
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, typeGauge, "", nil)
	return f.gauge("")
}

// CounterFunc registers a counter whose value is read at scrape time.
// fn runs during WritePrometheus and must not call back into the
// registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, typeCounter, "", fn)
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, typeGauge, "", fn)
}

// Histogram registers and returns an unlabeled histogram over bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, typeHistogram, "", nil)
	return f.histogram("", bounds)
}

// CounterVec is a family of counters split by one label.
type CounterVec struct{ f *family }

// CounterVec registers a counter family keyed by the given label name.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if label == "" {
		panic("obs: counter vec needs a label name")
	}
	return &CounterVec{f: r.register(name, help, typeCounter, label, nil)}
}

// With returns the counter for one label value, creating it on first
// use. The returned Counter is cached — hold on to it near hot paths
// instead of calling With per update.
func (v *CounterVec) With(labelValue string) *Counter { return v.f.counter(labelValue) }

// HistogramVec is a family of histograms split by one label.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// HistogramVec registers a histogram family keyed by the given label
// name, all children sharing one set of bucket bounds.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if label == "" {
		panic("obs: histogram vec needs a label name")
	}
	return &HistogramVec{f: r.register(name, help, typeHistogram, label, nil), bounds: bounds}
}

// With returns the histogram for one label value, creating it on first
// use.
func (v *HistogramVec) With(labelValue string) *Histogram { return v.f.histogram(labelValue, v.bounds) }

func (f *family) counter(key string) *Counter {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.counters == nil {
		f.counters = make(map[string]*Counter)
	}
	if c, ok := f.counters[key]; ok {
		return c
	}
	c := &Counter{}
	f.counters[key] = c
	f.keys = append(f.keys, key)
	return c
}

func (f *family) gauge(key string) *Gauge {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gauges == nil {
		f.gauges = make(map[string]*Gauge)
	}
	if g, ok := f.gauges[key]; ok {
		return g
	}
	g := &Gauge{}
	f.gauges[key] = g
	f.keys = append(f.keys, key)
	return g
}

func (f *family) histogram(key string, bounds []float64) *Histogram {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hists == nil {
		f.hists = make(map[string]*Histogram)
	}
	if h, ok := f.hists[key]; ok {
		return h
	}
	h := NewHistogram(bounds)
	f.hists[key] = h
	f.keys = append(f.keys, key)
	return h
}

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every family in the text exposition format,
// families sorted by name and children sorted by label value, so the
// output is deterministic for a fixed metric state. Scrape-time
// functions (CounterFunc/GaugeFunc) are evaluated here.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	// Render into a buffer first: no family lock is held while writing
	// to w (which is an http.ResponseWriter under /metrics).
	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) render(b *strings.Builder) {
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	if f.read != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatValue(f.read()))
		return
	}
	f.mu.Lock()
	keys := make([]string, len(f.keys))
	copy(keys, f.keys)
	f.mu.Unlock()
	sort.Strings(keys)
	for _, key := range keys {
		f.mu.Lock()
		c, g, h := f.counters[key], f.gauges[key], f.hists[key]
		f.mu.Unlock()
		switch {
		case c != nil:
			fmt.Fprintf(b, "%s%s %s\n", f.name, f.labels(key), formatValue(float64(c.Value())))
		case g != nil:
			fmt.Fprintf(b, "%s%s %s\n", f.name, f.labels(key), formatValue(float64(g.Value())))
		case h != nil:
			f.renderHistogram(b, key, h)
		}
	}
}

// renderHistogram writes the cumulative _bucket series plus _sum and
// _count for one child.
func (f *family) renderHistogram(b *strings.Builder, key string, h *Histogram) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, f.bucketLabels(key, formatValue(bound)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, f.bucketLabels(key, "+Inf"), h.Count())
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name, f.labels(key), formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, f.labels(key), h.Count())
}

// labels renders the label set for one child ("" for unlabeled).
func (f *family) labels(key string) string {
	if f.labelKey == "" {
		return ""
	}
	return "{" + f.labelKey + `="` + escapeLabel(key) + `"}`
}

// bucketLabels renders the label set of a _bucket sample, appending le.
func (f *family) bucketLabels(key, le string) string {
	if f.labelKey == "" {
		return `{le="` + le + `"}`
	}
	return "{" + f.labelKey + `="` + escapeLabel(key) + `",le="` + le + `"}`
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }
