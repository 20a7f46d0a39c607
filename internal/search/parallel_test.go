package search

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mapping"
	"repro/internal/par"
	"repro/internal/topology"
)

// resultsEqual compares the fields that must be bit-identical across
// worker counts.
func resultsEqual(a, b *Result) bool {
	return math.Float64bits(a.BestCost) == math.Float64bits(b.BestCost) &&
		math.Float64bits(a.InitialCost) == math.Float64bits(b.InitialCost) &&
		a.Evaluations == b.Evaluations &&
		a.Improvements == b.Improvements &&
		a.Certified == b.Certified &&
		mapping.Equal(a.Best, b.Best)
}

func TestMultiAnnealerDeterministicAcrossWorkers(t *testing.T) {
	p, _ := testProblem(t, 3, 3, 6)
	var ref *Result
	for _, workers := range []int{1, 2, 5, 16} {
		res, err := (&MultiAnnealer{
			Base:     Annealer{Problem: p, Seed: 7, TempSteps: 15},
			Restarts: 5,
			Workers:  workers,
		}).Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !resultsEqual(ref, res) {
			t.Fatalf("workers=%d diverged: %+v vs %+v", workers, res, ref)
		}
	}
}

func TestMultiAnnealerSingleRestartMatchesAnnealer(t *testing.T) {
	p, _ := testProblem(t, 3, 3, 6)
	single, err := (&Annealer{Problem: p, Seed: 3, TempSteps: 12}).Run()
	if err != nil {
		t.Fatal(err)
	}
	multi, err := (&MultiAnnealer{
		Base:    Annealer{Problem: p, Seed: 3, TempSteps: 12},
		Workers: 4,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(single, multi) {
		t.Fatalf("restarts=1 diverged from plain annealer: %+v vs %+v", multi, single)
	}
}

func TestMultiAnnealerNeverWorseThanSingleRun(t *testing.T) {
	p, _ := testProblem(t, 3, 3, 7)
	single, err := (&Annealer{Problem: p, Seed: 11, TempSteps: 10}).Run()
	if err != nil {
		t.Fatal(err)
	}
	multi, err := (&MultiAnnealer{
		Base:     Annealer{Problem: p, Seed: 11, TempSteps: 10},
		Restarts: 6,
		Workers:  3,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if multi.BestCost > single.BestCost {
		t.Fatalf("6 restarts (%g) worse than restart 0 alone (%g)", multi.BestCost, single.BestCost)
	}
	if multi.Evaluations <= single.Evaluations {
		t.Fatalf("evaluations %d do not accumulate across restarts (single: %d)",
			multi.Evaluations, single.Evaluations)
	}
}

func TestMultiAnnealerTieBreaksToLowestRestart(t *testing.T) {
	// A flat objective makes every restart tie at cost 0; the winner must
	// be restart 0 (the base seed's own run) for reproducibility.
	p, _ := testProblem(t, 2, 2, 4)
	flat := ObjectiveFunc(func(mapping.Mapping) (float64, error) { return 0, nil })
	p.Obj = flat
	want, err := (&Annealer{Problem: p, Seed: 9, TempSteps: 5}).Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&MultiAnnealer{
		Base:     Annealer{Problem: p, Seed: 9, TempSteps: 5},
		Restarts: 4,
		Workers:  4,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !mapping.Equal(got.Best, want.Best) {
		t.Fatalf("tie not broken towards restart 0: %v vs %v", got.Best, want.Best)
	}
}

func TestMultiAnnealerObjectiveFactory(t *testing.T) {
	p, obj := testProblem(t, 3, 3, 6)
	var built int
	shared, err := (&MultiAnnealer{
		Base:     Annealer{Problem: p, Seed: 1, TempSteps: 10},
		Restarts: 4,
		Workers:  2,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	viaFactory, err := (&MultiAnnealer{
		Base:     Annealer{Problem: Problem{Mesh: p.Mesh, NumCores: p.NumCores}, Seed: 1, TempSteps: 10},
		Restarts: 4,
		Workers:  2,
		NewObjective: func() (Objective, error) {
			built++
			return obj, nil
		},
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if built != 2 {
		t.Fatalf("factory called %d times, want once per worker lane (2)", built)
	}
	if !resultsEqual(shared, viaFactory) {
		t.Fatalf("factory path diverged: %+v vs %+v", viaFactory, shared)
	}
}

// TestMultiAnnealerLanePanicReachesCaller: a panic in the objective of a
// worker lane reaches the goroutine that called Run, where a recover can
// see it, instead of ending the process. Lane 0's objective holds its
// pricings until lane 1's has panicked, so lane 1 must run a restart.
func TestMultiAnnealerLanePanicReachesCaller(t *testing.T) {
	p, w := testProblem(t, 3, 3, 6)
	release := make(chan struct{})
	var lanes int
	newObj := func() (Objective, error) {
		lanes++
		if lanes == 2 {
			return ObjectiveFunc(func(mapping.Mapping) (float64, error) {
				close(release)
				panic("lane 1 objective")
			}), nil
		}
		return ObjectiveFunc(func(mp mapping.Mapping) (float64, error) {
			<-release
			return w.Cost(mp)
		}), nil
	}
	var got any
	func() {
		defer func() { got = recover() }()
		_, _ = (&MultiAnnealer{Base: Annealer{Problem: Problem{Mesh: p.Mesh, NumCores: p.NumCores},
			Seed: 1, TempSteps: 3}, Restarts: 2, Workers: 2, NewObjective: newObj}).Run()
	}()
	pp, ok := got.(*par.Panic)
	if !ok || pp.Value != "lane 1 objective" {
		t.Fatalf("recovered %v (%T), want the lane's panic as a *par.Panic", got, got)
	}
}

func TestMultiAnnealerErrors(t *testing.T) {
	p, _ := testProblem(t, 2, 2, 4)
	if _, err := (&MultiAnnealer{Base: Annealer{Problem: p}, Restarts: -1}).Run(); err == nil {
		t.Error("negative restarts accepted")
	}
	boom := errors.New("factory boom")
	if _, err := (&MultiAnnealer{
		Base:         Annealer{Problem: Problem{Mesh: p.Mesh, NumCores: 4}},
		Restarts:     2,
		Workers:      2,
		NewObjective: func() (Objective, error) { return nil, boom },
	}).Run(); !errors.Is(err, boom) {
		t.Errorf("factory error not propagated: %v", err)
	}
	objBoom := errors.New("objective boom")
	bad := ObjectiveFunc(func(mapping.Mapping) (float64, error) { return 0, objBoom })
	if _, err := (&MultiAnnealer{
		Base:     Annealer{Problem: Problem{Mesh: p.Mesh, NumCores: 4, Obj: bad}},
		Restarts: 3,
		Workers:  3,
	}).Run(); !errors.Is(err, objBoom) {
		t.Errorf("objective error not propagated: %v", err)
	}
}

// bruteForce is the exhaustive-search reference, written independently
// of the engine: one in-order mapping.Enumerate pass priced with Cost,
// keeping the first placement of strictly lower cost. With perShard,
// Improvements counts strict improvements within each run of placements
// sharing core 0's tile — the quantity ShardedExhaustive reports for
// unlimited runs; otherwise it counts global improvements.
func bruteForce(t *testing.T, p Problem, anchor bool, limit int64, perShard bool) *Result {
	t.Helper()
	anchorCore := -1
	if anchor {
		anchorCore = 0
	}
	ref := &Result{BestCost: math.Inf(1)}
	first, shardBest := topology.TileID(-1), math.Inf(1)
	err := mapping.Enumerate(p.Mesh, p.NumCores,
		mapping.EnumerateOptions{Limit: limit, AnchorCore: anchorCore},
		func(m mapping.Mapping) bool {
			c, err := p.Obj.Cost(m)
			if err != nil {
				t.Fatal(err)
			}
			ref.Evaluations++
			ref.ExactEvals++
			if ref.Evaluations == 1 {
				ref.InitialCost = c
			}
			if c < ref.BestCost {
				ref.BestCost = c
				ref.Best = m.Clone()
				if !perShard {
					ref.Improvements++
				}
			}
			if perShard {
				if m[0] != first {
					first, shardBest = m[0], math.Inf(1)
				}
				if c < shardBest {
					shardBest = c
					ref.Improvements++
				}
			}
			return true
		})
	switch {
	case err == nil:
		ref.Certified = true
	case err != mapping.ErrLimit:
		t.Fatal(err)
	}
	return ref
}

func TestShardedExhaustiveMatchesSerial(t *testing.T) {
	for _, anchor := range []bool{false, true} {
		p, _ := testProblem(t, 3, 2, 4)
		ref := bruteForce(t, p, anchor, 0, true)
		for _, workers := range []int{1, 2, 3, 8, 32} {
			sharded, err := (&ShardedExhaustive{Problem: p, Anchor: anchor, Workers: workers}).Run()
			if err != nil {
				t.Fatalf("anchor=%v workers=%d: %v", anchor, workers, err)
			}
			if !resultsEqual(sharded, ref) || !sharded.Certified {
				t.Fatalf("anchor=%v workers=%d diverged: %+v vs reference %+v",
					anchor, workers, sharded, ref)
			}
		}
	}
}

func TestShardedExhaustiveEqualCostTieMatchesSerial(t *testing.T) {
	// A flat landscape makes every placement optimal; the sharded merge
	// must still report the first placement of the in-order enumeration.
	p, _ := testProblem(t, 3, 2, 3)
	p.Obj = ObjectiveFunc(func(mapping.Mapping) (float64, error) { return 42, nil })
	ref := bruteForce(t, p, false, 0, true)
	sharded, err := (&ShardedExhaustive{Problem: p, Workers: 6}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(sharded, ref) {
		t.Fatalf("tie resolution diverged: %+v vs reference %+v", sharded, ref)
	}
}

func TestShardedExhaustiveLimitFallsBackToSerial(t *testing.T) {
	p, _ := testProblem(t, 3, 2, 4)
	for _, anchor := range []bool{false, true} {
		for _, limit := range []int64{5, 100, 1000} {
			ref := bruteForce(t, p, anchor, limit, false)
			sharded, err := (&ShardedExhaustive{Problem: p, Anchor: anchor, Limit: limit, Workers: 4}).Run()
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(sharded, ref) {
				t.Fatalf("anchor=%v limit=%d diverged: %+v vs reference %+v", anchor, limit, sharded, ref)
			}
		}
	}
	if ref := bruteForce(t, p, false, 5, false); ref.Certified || ref.Evaluations != 5 {
		t.Fatalf("truncated reference run: %+v", ref)
	}
}

func TestShardedExhaustiveErrorPropagates(t *testing.T) {
	p, _ := testProblem(t, 2, 2, 4)
	boom := errors.New("boom")
	p.Obj = ObjectiveFunc(func(mapping.Mapping) (float64, error) { return 0, boom })
	if _, err := (&ShardedExhaustive{Problem: p, Workers: 4}).Run(); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestShardedExhaustiveValidates(t *testing.T) {
	if _, err := (&ShardedExhaustive{Workers: 4}).Run(); err == nil {
		t.Error("nil mesh accepted")
	}
	p, _ := testProblem(t, 2, 2, 4)
	bad := Problem{Mesh: p.Mesh, NumCores: 99, Obj: p.Obj}
	if _, err := (&ShardedExhaustive{Problem: bad, Workers: 4}).Run(); err == nil {
		t.Error("oversubscribed problem accepted")
	}
}
