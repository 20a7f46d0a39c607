package search

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/mapping"
)

// engineDigest is the FNV-1a 64 digest of every Result, FrontResult and
// Progress snapshot the engine sweep of TestEngineDigestPinned produces.
// It was computed before the engines' core loops were merged into shared
// kernels; any change that moves one RNG draw, one counter or one cost
// bit changes it.
const engineDigest uint64 = 0x16f49506aad38473

// digestInstance is one (mesh, core count) problem of the pinned sweep.
type digestInstance struct {
	name string
	prob func(t *testing.T) (Problem, *wireLength)
}

func digestInstances() []digestInstance {
	return []digestInstance{
		{"2d", func(t *testing.T) (Problem, *wireLength) { return testProblem(t, 4, 3, 10) }},
		{"3d", func(t *testing.T) (Problem, *wireLength) { return testProblem3D(t, 2, 3, 2, 10) }},
		{"partial", func(t *testing.T) (Problem, *wireLength) { return testProblem(t, 3, 3, 5) }},
	}
}

// digestObjectives builds a fresh instance of each scalar fake per call,
// so every run starts from unbound state: full recompute, incremental
// delta, tier-A certified bound (a CutoffObjective) and tier-B surrogate.
var digestObjectives = []struct {
	name string
	make func(w *wireLength) Objective
}{
	{"full", func(w *wireLength) Objective { return w }},
	{"delta", func(w *wireLength) Objective { return &deltaWireLength{wireLength: *w} }},
	{"tierA", func(w *wireLength) Objective { return &boundWire{w: w, eps: 1e-9} }},
	{"tierB", func(w *wireLength) Objective {
		return &TieredObjective{Exact: w, Surrogate: &surrWire{deltaWireLength{wireLength: *w}}}
	}},
}

// digestRecorder folds labelled results and progress snapshots into one
// hash. %v prints float64 in its shortest round-trip form, so equal
// digests mean bit-equal costs.
type digestRecorder struct {
	h hash.Hash64
}

func (d *digestRecorder) progress(label string) ProgressFunc {
	return func(p Progress) { fmt.Fprintf(d.h, "%s|%+v\n", label, p) }
}

func (d *digestRecorder) result(t *testing.T, label string, res *Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fmt.Fprintf(d.h, "%s|%+v\n", label, *res)
}

// TestEngineDigestPinned is the engines' cross-commit oracle: one digest
// over full Results and every Progress snapshot of SA (fixed and
// calibrated T0, with reheats), MultiAnnealer, hill climbing, tabu and
// random search on every fake objective, ShardedExhaustive with the
// anchor on and off under no limit and limits below and above the space
// size, and ParetoSA fronts with and without a surrogate — on 2-D, 3-D
// and partially occupied meshes. Runs use one worker so the progress
// stream has a fixed order.
func TestEngineDigestPinned(t *testing.T) {
	rec := &digestRecorder{h: fnv.New64a()}
	for _, inst := range digestInstances() {
		for _, o := range digestObjectives {
			p, w := inst.prob(t)
			fresh := func() Problem {
				q := p
				q.Obj = o.make(w)
				return q
			}
			factory := func() (Objective, error) { return o.make(w), nil }
			for _, t0 := range []float64{0, 40} {
				label := fmt.Sprintf("%s/%s/sa/t0=%g", inst.name, o.name, t0)
				res, err := (&Annealer{Problem: fresh(), Seed: 5, InitialTemp: t0,
					TempSteps: 40, MovesPerTemp: 20, Alpha: 0.8, StallSteps: 3, Reheats: 2,
					OnProgress: rec.progress(label)}).Run()
				rec.result(t, label, res, err)
			}
			label := inst.name + "/" + o.name + "/multi"
			res, err := (&MultiAnnealer{Base: Annealer{Problem: fresh(), Seed: 9,
				TempSteps: 12, MovesPerTemp: 15, StallSteps: 2, Reheats: 1,
				OnProgress: rec.progress(label)},
				Restarts: 3, Workers: 1, NewObjective: factory}).Run()
			rec.result(t, label, res, err)

			label = inst.name + "/" + o.name + "/hill"
			res, err = (&HillClimber{Problem: fresh(), Seed: 3, Restarts: 2,
				OnProgress: rec.progress(label)}).Run()
			rec.result(t, label, res, err)

			label = inst.name + "/" + o.name + "/hill-initial"
			res, err = (&HillClimber{Problem: fresh(), Seed: 4, Restarts: 2,
				Initial: mapping.Identity(p.NumCores), OnProgress: rec.progress(label)}).Run()
			rec.result(t, label, res, err)

			label = inst.name + "/" + o.name + "/tabu"
			res, err = (&Tabu{Problem: fresh(), Seed: 3, Iterations: 25,
				OnProgress: rec.progress(label)}).Run()
			rec.result(t, label, res, err)

			label = inst.name + "/" + o.name + "/random"
			res, err = (&RandomSearch{Problem: fresh(), Seed: 3, Samples: 600,
				OnProgress: rec.progress(label)}).Run()
			rec.result(t, label, res, err)
		}
	}

	// Exhaustive search over a 360-placement space (4 cores on 3x2): no
	// limit, a limit below the space size and one above it.
	for _, o := range digestObjectives {
		p, w := testProblem(t, 3, 2, 4)
		for _, anchor := range []bool{false, true} {
			for _, limit := range []int64{0, 50, 5000} {
				label := fmt.Sprintf("es/%s/anchor=%v/limit=%d", o.name, anchor, limit)
				q := p
				q.Obj = o.make(w)
				res, err := (&ShardedExhaustive{Problem: q, Anchor: anchor, Limit: limit,
					Workers: 1, OnProgress: rec.progress(label)}).Run()
				rec.result(t, label, res, err)
			}
		}
	}
	// A 6720-placement space (5 cores on 2x4) so the 4096-evaluation
	// progress cadence fires inside a shard and on the limited path.
	for _, limit := range []int64{0, 4500} {
		p, _ := testProblem(t, 2, 4, 5)
		label := fmt.Sprintf("es/large/limit=%d", limit)
		res, err := (&ShardedExhaustive{Problem: p, Limit: limit, Workers: 1,
			OnProgress: rec.progress(label)}).Run()
		rec.result(t, label, res, err)
	}

	for _, size := range [][3]int{{4, 3, 10}, {3, 3, 5}} {
		p, v := testVecProblem(t, size[0], size[1], size[2])
		scalar := &wireLength{mesh: v.a.mesh, flows: append(append([][3]int{}, v.a.flows...), v.b.flows...)}
		for _, surr := range []bool{false, true} {
			newObj := func() (Objective, error) {
				if !surr {
					return &vecWire{a: v.a, b: v.b}, nil
				}
				return &TieredObjective{Exact: v,
					Surrogate: &vecSurrWire{surrWire{deltaWireLength{wireLength: *scalar}}, v}}, nil
			}
			for _, t0 := range []float64{0, 2} {
				label := fmt.Sprintf("pareto/%dx%d/surr=%v/t0=%g", size[0], size[1], surr, t0)
				q := p
				q.Obj, _ = newObj()
				front, err := (&ParetoSA{Problem: q, Seed: 7, InitialTemp: t0,
					Initial: mapping.Identity(size[2]), Walks: 4, TempSteps: 12,
					MovesPerTemp: 15, StallSteps: 3, FrontSize: 6, Workers: 1,
					NewObjective: newObj, OnProgress: rec.progress(label)}).Run()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				fmt.Fprintf(rec.h, "%s|%+v\n", label, *front)
			}
		}
	}

	if got := rec.h.Sum64(); got != engineDigest {
		t.Fatalf("engine digest = %#x, want %#x", got, engineDigest)
	}
}
