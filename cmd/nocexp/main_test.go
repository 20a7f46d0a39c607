package main

import (
	"context"
	"errors"
	"testing"
)

// The fast experiments run end to end through the CLI entry point.
func TestRunFastExperiments(t *testing.T) {
	for _, which := range []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5"} {
		if err := run(nil, which, 1, 0, 0, 0, 4, "mesh", 100, 10, 1, 2, 0.08, 2, false); err != nil {
			t.Fatalf("%s: %v", which, err)
		}
	}
}

func TestRunBoundedExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Tight budgets keep these to a few seconds each.
	if err := run(nil, "table2", 1, 6, 10, 6, 4, "mesh", 100, 10, 1, 2, 0.08, 2, false); err != nil {
		t.Fatalf("table2: %v", err)
	}
	if err := run(nil, "esvssa", 1, 0, 0, 0, 4, "mesh", 800, 10, 1, 2, 0.08, 2, false); err != nil {
		t.Fatalf("esvssa: %v", err)
	}
	if err := run(nil, "sensitivity", 1, 0, 0, 6, 4, "mesh", 100, 20, 1, 2, 0.08, 2, false); err != nil {
		t.Fatalf("sensitivity: %v", err)
	}
	if err := run(nil, "ablation", 1, 6, 10, 6, 4, "mesh", 100, 10, 1, 2, 0.08, 2, false); err != nil {
		t.Fatalf("ablation: %v", err)
	}
	if err := run(nil, "buffers", 1, 6, 10, 6, 4, "mesh", 100, 10, 1, 2, 0.08, 2, false); err != nil {
		t.Fatalf("buffers: %v", err)
	}
	if err := run(nil, "vsrandom", 1, 0, 0, 6, 4, "mesh", 100, 15, 1, 2, 0.08, 2, false); err != nil {
		t.Fatalf("vsrandom: %v", err)
	}
	if err := run(nil, "dim3", 1, 6, 10, 0, 4, "mesh", 100, 10, 1, 2, 0.08, 2, false); err != nil {
		t.Fatalf("dim3: %v", err)
	}
	if err := run(nil, "resilience", 1, 6, 10, 0, 4, "mesh", 100, 10, 1, 2, 0.08, 2, false); err != nil {
		t.Fatalf("resilience: %v", err)
	}
	if err := run(nil, "resilience", 1, 6, 10, 0, 4, "mesh", 100, 10, 1, 2, 0.08, 3, false); err == nil {
		t.Fatal("resilience accepted an empty fault draw") // 0.08/seed 3 draws nothing on 4x4
	}
	if err := run(nil, "dim3", 1, 6, 10, 0, 2, "torus", 100, 10, 1, 2, 0.08, 2, false); err != nil {
		t.Fatalf("dim3 torus: %v", err)
	}
	if err := run(nil, "dim3", 1, 6, 10, 0, 4, "mesh", 100, 10, 1, 2, 0.08, 2, true); err != nil {
		t.Fatalf("dim3 surrogate: %v", err)
	}
	if err := run(nil, "dim3", 1, 6, 10, 0, 4, "moebius", 100, 10, 1, 2, 0.08, 2, false); err == nil {
		t.Fatal("dim3 accepted an unknown topology")
	}
}

// TestRunHonorsCanceledContext: the interrupt context reaches every
// experiment that searches, so a run started after Ctrl-C stops with
// context.Canceled instead of running to the end. esvssa gets an -esmax
// that admits the small rows, so its exhaustive search does start.
func TestRunHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, which := range []string{"table2", "buffers", "ablation", "dim3", "esvssa", "vsrandom"} {
		if err := run(ctx, which, 1, 6, 10, 6, 4, "mesh", 1000, 10, 1, 2, 0.08, 2, false); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", which, err)
		}
	}
}
