package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// spec.json describes the workloads and metrics: for each metric its
// unit, direction, whether it is host or simulated time, the layer that
// feeds it and, for a per-layer metric, the end-to-end metric it should
// move. BENCHMARK.json at the repository root carries the same names,
// units and directions; the benchmark's tests keep the two in step.
//
//go:embed spec.json
var specJSON []byte

type workloadSpec struct {
	Name string `json:"name"`
	// TailPercentile is the latency percentile reported as the tail.
	TailPercentile float64 `json:"tail_percentile"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// spec is the part of spec.json the program reads; the rest documents.
type spec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

func (s *spec) workload(name string) (workloadSpec, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
