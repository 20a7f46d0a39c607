package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a workload, a job, a phase inside the
// engine or an HTTP call. Spans of one job share its request ID.
type span struct {
	ID        int     `json:"id"`
	Parent    int     `json:"parent"` // -1 for a root
	Name      string  `json:"name"`
	RequestID string  `json:"request_id,omitempty"`
	StartUS   float64 `json:"start_us"`
	EndUS     float64 `json:"end_us"`
	// SelfUS is the span's duration minus the part its children cover,
	// filled in when the trace is written.
	SelfUS float64 `json:"self_us"`
}

// tracer holds spans in memory; write emits them when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

// begin opens a span now and returns its ID.
func (t *tracer) begin(name string, parent int, req string) int {
	return t.add(name, parent, req, time.Now(), time.Time{})
}

// add records a span with known bounds; a zero end leaves it open.
func (t *tracer) add(name string, parent int, req string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans), Parent: parent, Name: name, RequestID: req, StartUS: t.us(start)}
	if !end.IsZero() {
		s.EndUS = t.us(end)
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id now.
func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndUS = t.us(now)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var us float64
	for _, s := range t.spans {
		if s.Name == name {
			us += s.EndUS - s.StartUS
		}
	}
	return time.Duration(us * float64(time.Microsecond))
}

// self sums the self time of the spans with the given name.
func (t *tracer) self(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.computeSelf()
	var us float64
	for _, s := range t.spans {
		if s.Name == name {
			us += s.SelfUS
		}
	}
	return time.Duration(us * float64(time.Microsecond))
}

// computeSelf sets every span's self time: its duration minus the union
// of its children's intervals clipped to it. Caller holds t.mu.
func (t *tracer) computeSelf() {
	kids := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.StartUS, s.EndUS})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := 0.0, s.StartUS
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.EndUS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.SelfUS = s.EndUS - s.StartUS - covered
	}
}

// write stores the spans as a JSON array at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.computeSelf()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
