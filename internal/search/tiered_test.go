package search

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/topology"
)

// boundWire is the wireLength test objective as a CutoffObjective whose
// only bound is its exact cost minus a small epsilon, offered before any
// work the way CDCM offers its tier-A bound: bound ≤ exact holds by
// construction and the engines skip almost every non-improving swap —
// the strongest possible stress on the bit-identity contract. priced
// counts PriceBelow calls, cuts those skipped at the bound.
type boundWire struct {
	w   *wireLength
	eps float64

	priced, cuts int
}

var _ CutoffObjective = (*boundWire)(nil)

func (b *boundWire) Cost(mp mapping.Mapping) (float64, error) { return b.w.Cost(mp) }

func (b *boundWire) PriceBelow(mp mapping.Mapping, reject func(lb float64) bool) (float64, bool, error) {
	b.priced++
	c, err := b.w.Cost(mp)
	if err != nil {
		return 0, false, err
	}
	if reject(c - b.eps) {
		b.cuts++
		return 0, true, nil
	}
	return c, false, nil
}

// surrWire distorts deltaWireLength into a tier-B style surrogate: an
// affine transformation of the exact cost. It predicts ranks correctly
// (the distortion is monotone) but its values are never the exact
// objective's, so any surrogate number leaking into a reported result
// trips the bitwise assertions downstream.
type surrWire struct {
	deltaWireLength
}

func (s *surrWire) Reset(mp mapping.Mapping) (float64, error) {
	c, err := s.deltaWireLength.Reset(mp)
	return 1.25*c + 3, err
}

func (s *surrWire) SwapDelta(occ []model.CoreID, ta, tb topology.TileID) (float64, error) {
	d, err := s.deltaWireLength.SwapDelta(occ, ta, tb)
	return 1.25 * d, err
}

func (s *surrWire) Commit(ta, tb topology.TileID) float64 {
	return 1.25*s.deltaWireLength.Commit(ta, tb) + 3
}

func checkTierInvariant(t *testing.T, name string, res *Result) {
	t.Helper()
	if got := res.ExactEvals + res.BoundSkips + res.SurrogateEvals; got != res.Evaluations {
		t.Fatalf("%s: ExactEvals %d + BoundSkips %d + SurrogateEvals %d != Evaluations %d",
			name, res.ExactEvals, res.BoundSkips, res.SurrogateEvals, res.Evaluations)
	}
}

// TestTierAFilterBitIdentical pins the tier-A contract at the engine
// level with a synthetic certified bound: HillClimber and Tabu runs over
// a CutoffObjective — bare, or as the exact tier of a TieredObjective —
// reproduce the uncertified runs bit for bit while skipping swaps
// (BoundSkips > 0), and every skip is a pricing cut at its first bound.
// A TieredObjective carrying a surrogate runs exactly as its bare exact
// tier.
func TestTierAFilterBitIdentical(t *testing.T) {
	p, w := testProblem(t, 4, 3, 10)
	for _, engine := range []string{"hill", "tabu"} {
		run := func(obj Objective) *Result {
			prob := p
			prob.Obj = obj
			var res *Result
			var err error
			if engine == "hill" {
				res, err = (&HillClimber{Problem: prob, Seed: 3}).Run()
			} else {
				res, err = (&Tabu{Problem: prob, Seed: 3, Iterations: 30}).Run()
			}
			if err != nil {
				t.Fatalf("%s: %v", engine, err)
			}
			return res
		}
		bare := run(w)
		bnd := &boundWire{w: w, eps: 1e-9}
		tiered := run(bnd)

		if !mapping.Equal(bare.Best, tiered.Best) {
			t.Fatalf("%s: tiered best %v != bare best %v", engine, tiered.Best, bare.Best)
		}
		if math.Float64bits(bare.BestCost) != math.Float64bits(tiered.BestCost) {
			t.Fatalf("%s: tiered cost %g != bare cost %g", engine, tiered.BestCost, bare.BestCost)
		}
		if bare.Evaluations != tiered.Evaluations || bare.Improvements != tiered.Improvements {
			t.Fatalf("%s: tiered (evals %d, impr %d) != bare (evals %d, impr %d)",
				engine, tiered.Evaluations, tiered.Improvements, bare.Evaluations, bare.Improvements)
		}
		if tiered.BoundSkips == 0 {
			t.Fatalf("%s: certified bound never skipped a swap", engine)
		}
		if tiered.ExactEvals >= bare.ExactEvals {
			t.Fatalf("%s: filter saved no exact evaluations (%d vs %d)",
				engine, tiered.ExactEvals, bare.ExactEvals)
		}
		if bnd.priced == 0 || int64(bnd.cuts) != tiered.BoundSkips {
			t.Fatalf("%s: bound consulted %d times, %d cuts for %d skips",
				engine, bnd.priced, bnd.cuts, tiered.BoundSkips)
		}
		wrapped := run(&TieredObjective{Exact: &boundWire{w: w, eps: 1e-9}})
		if fmt.Sprintf("%+v", *wrapped) != fmt.Sprintf("%+v", *tiered) {
			t.Fatalf("%s: certifying through a TieredObjective changed the run: %+v vs %+v",
				engine, *wrapped, *tiered)
		}
		// Hill and tabu never walk on a surrogate: one attached to the
		// exact tier is ignored, bit for bit.
		surr := run(&TieredObjective{Exact: w, Surrogate: &surrWire{deltaWireLength{wireLength: *w}}})
		if surr.SurrogateEvals != 0 || fmt.Sprintf("%+v", *surr) != fmt.Sprintf("%+v", *bare) {
			t.Fatalf("%s: an attached surrogate changed the run: %+v vs %+v", engine, *surr, *bare)
		}
		checkTierInvariant(t, engine+"/bare", bare)
		checkTierInvariant(t, engine+"/tiered", tiered)
	}
}

// TestIncumbentAuditInvariant pins the incumbent-cost field (the
// drift-guard rule): after every adopted move of the annealer and both
// neighbourhood engines, on the full, delta, tier-A and tier-B paths,
// inc.cost is bitwise the exactly recomputed cost of inc.cur — never an
// accumulation of deltas.
func TestIncumbentAuditInvariant(t *testing.T) {
	audits := 0
	incumbentAudit = func(engine string, obj Objective, inc *incumbent) {
		audits++
		c, err := exactOf(obj).Cost(inc.cur)
		if err != nil {
			t.Fatalf("%s audit: %v", engine, err)
		}
		if math.Float64bits(c) != math.Float64bits(inc.cost) {
			t.Fatalf("%s audit %d: inc.cost %x drifted from exact %x",
				engine, audits, math.Float64bits(inc.cost), math.Float64bits(c))
		}
		for core, tile := range inc.cur {
			if inc.occ[tile] != model.CoreID(core) {
				t.Fatalf("%s audit: occupancy view drifted at tile %d", engine, tile)
			}
		}
	}
	defer func() { incumbentAudit = nil }()

	p, w := testProblem(t, 4, 3, 10)
	full := p
	full.Obj = w
	delta := p
	delta.Obj = &deltaWireLength{wireLength: *w}
	tiered := p
	tiered.Obj = &boundWire{w: w, eps: 1e-9}
	surrogate := p
	surrogate.Obj = &TieredObjective{Exact: w, Surrogate: &surrWire{deltaWireLength{wireLength: *w}}}
	for name, prob := range map[string]Problem{"full": full, "delta": delta, "tiered": tiered,
		"surrogate": surrogate} {
		for _, engine := range []string{"hill", "tabu", "SA"} {
			before := audits
			var err error
			switch engine {
			case "hill":
				_, err = (&HillClimber{Problem: prob, Seed: 3}).Run()
			case "tabu":
				_, err = (&Tabu{Problem: prob, Seed: 3, Iterations: 20}).Run()
			default:
				_, err = (&Annealer{Problem: prob, Seed: 3, TempSteps: 20, MovesPerTemp: 20,
					StallSteps: 3, Reheats: 1}).Run()
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", name, engine, err)
			}
			if audits == before {
				t.Fatalf("%s/%s: no adopted move audited", name, engine)
			}
		}
	}
}

// TestAnnealerSurrogateExactResults pins the tier-B protocol on the
// annealer: the walk prices candidates on the surrogate (SurrogateEvals
// > 0), exact-reprices every accepted move, and reports a Best whose
// cost the exact objective reproduces bit for bit. Two identical runs
// must agree exactly, including after reheats.
func TestAnnealerSurrogateExactResults(t *testing.T) {
	p, w := testProblem(t, 4, 3, 10)
	run := func() *Result {
		prob := p
		prob.Obj = &TieredObjective{Exact: w, Surrogate: &surrWire{deltaWireLength{wireLength: *w}}}
		res, err := (&Annealer{Problem: prob, Seed: 11, TempSteps: 15, MovesPerTemp: 20,
			StallSteps: 3, Reheats: 1}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if a.SurrogateEvals == 0 {
		t.Fatal("surrogate never priced a candidate")
	}
	if a.ExactEvals == 0 {
		t.Fatal("no exact evaluations: accepted moves were not repriced")
	}
	checkTierInvariant(t, "annealer", a)
	exact, err := w.Cost(a.Best)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(exact) != math.Float64bits(a.BestCost) {
		t.Fatalf("BestCost %x is not the exact price %x — a surrogate value leaked",
			math.Float64bits(a.BestCost), math.Float64bits(exact))
	}
	b := run()
	if !mapping.Equal(a.Best, b.Best) || a.BestCost != b.BestCost ||
		a.Evaluations != b.Evaluations || a.SurrogateEvals != b.SurrogateEvals ||
		a.ExactEvals != b.ExactEvals {
		t.Fatal("surrogate annealer is not deterministic under a fixed seed")
	}
}

// vecSurrWire is surrWire's vector counterpart for the Pareto engine: a
// DeltaObjective + VectorObjective whose components are a uniform
// distortion of vecWire's, so the walk ranks sensibly but any surrogate
// component leaking into the archive trips the bitwise checks.
type vecSurrWire struct {
	surrWire
	v *vecWire
}

func (s *vecSurrWire) Axes() []string             { return s.v.Axes() }
func (s *vecSurrWire) CollapseWeights() []float64 { return s.v.CollapseWeights() }

func (s *vecSurrWire) ComponentsInto(mp mapping.Mapping, dst []float64) error {
	if err := s.v.ComponentsInto(mp, dst); err != nil {
		return err
	}
	for i := range dst[:len(s.v.Axes())] {
		dst[i] = 1.25*dst[i] + 3
	}
	return nil
}

// TestParetoSurrogateFrontExact pins the tier-B protocol on the front
// engine: the walk runs in the surrogate domain but only exact
// components ever reach the archive, and the run stays deterministic
// across worker counts.
func TestParetoSurrogateFrontExact(t *testing.T) {
	p, v := testVecProblem(t, 4, 3, 10)
	scalarFlows := &wireLength{mesh: v.a.mesh, flows: append(append([][3]int{}, v.a.flows...), v.b.flows...)}
	newObj := func() (Objective, error) {
		return &TieredObjective{
			Exact:     v,
			Surrogate: &vecSurrWire{surrWire{deltaWireLength{wireLength: *scalarFlows}}, v},
		}, nil
	}
	var ref *FrontResult
	for workers := 1; workers <= 2; workers++ {
		obj, _ := newObj()
		prob := p
		prob.Obj = obj
		front, err := (&ParetoSA{Problem: prob, Seed: 19, TempSteps: 10, MovesPerTemp: 15,
			Walks: 2, Workers: workers, NewObjective: newObj}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if front.SurrogateEvals == 0 {
			t.Fatalf("workers=%d: surrogate never priced a candidate", workers)
		}
		if got := front.ExactEvals + front.SurrogateEvals; got != front.Evaluations {
			t.Fatalf("workers=%d: counters sum to %d, Evaluations is %d", workers, got, front.Evaluations)
		}
		dst := make([]float64, len(front.Axes))
		for i, pt := range front.Points {
			if err := v.ComponentsInto(pt.Mapping, dst); err != nil {
				t.Fatal(err)
			}
			for a := range dst {
				if math.Float64bits(dst[a]) != math.Float64bits(pt.Components[a]) {
					t.Fatalf("workers=%d point %d axis %d: archived %g != exact %g — surrogate leaked",
						workers, i, a, pt.Components[a], dst[a])
				}
			}
		}
		if ref == nil {
			ref = front
			continue
		}
		if len(ref.Points) != len(front.Points) {
			t.Fatalf("workers=%d: front size %d != workers=1 size %d",
				workers, len(front.Points), len(ref.Points))
		}
		for i := range front.Points {
			if !mapping.Equal(ref.Points[i].Mapping, front.Points[i].Mapping) {
				t.Fatalf("workers=%d: point %d diverges from workers=1", workers, i)
			}
		}
	}
}

// TestProgressTierCountersMonotone pins the telemetry contract of the
// split counters: within one engine run every snapshot's ExactEvals,
// BoundSkips and SurrogateEvals are non-decreasing and always sum to
// Evaluations — the same monotonicity the service layer's clamps rely
// on.
func TestProgressTierCountersMonotone(t *testing.T) {
	p, w := testProblem(t, 4, 3, 10)
	check := func(name string, snaps []Progress) {
		t.Helper()
		if len(snaps) == 0 {
			t.Fatalf("%s: no progress snapshots", name)
		}
		var prev Progress
		for i, s := range snaps {
			if s.ExactEvals+s.BoundSkips+s.SurrogateEvals != s.Evaluations {
				t.Fatalf("%s snapshot %d: tier counters %d+%d+%d != Evaluations %d",
					name, i, s.ExactEvals, s.BoundSkips, s.SurrogateEvals, s.Evaluations)
			}
			if s.ExactEvals < prev.ExactEvals || s.BoundSkips < prev.BoundSkips ||
				s.SurrogateEvals < prev.SurrogateEvals {
				t.Fatalf("%s snapshot %d: tier counter decreased: %+v after %+v", name, i, s, prev)
			}
			prev = s
		}
	}

	var snaps []Progress
	collect := func(pr Progress) { snaps = append(snaps, pr) }

	prob := p
	prob.Obj = &boundWire{w: w, eps: 1e-9}
	if _, err := (&HillClimber{Problem: prob, Seed: 3, OnProgress: collect}).Run(); err != nil {
		t.Fatal(err)
	}
	check("hill", snaps)
	hill := snaps[len(snaps)-1]
	if hill.BoundSkips == 0 {
		t.Fatal("hill: snapshots never saw a bound skip")
	}

	snaps = nil
	if _, err := (&Tabu{Problem: prob, Seed: 3, Iterations: 20, OnProgress: collect}).Run(); err != nil {
		t.Fatal(err)
	}
	check("tabu", snaps)

	snaps = nil
	sprob := p
	sprob.Obj = &TieredObjective{Exact: w, Surrogate: &surrWire{deltaWireLength{wireLength: *w}}}
	if _, err := (&Annealer{Problem: sprob, Seed: 11, TempSteps: 10, MovesPerTemp: 30,
		OnProgress: collect}).Run(); err != nil {
		t.Fatal(err)
	}
	check("sa", snaps)
	if last := snaps[len(snaps)-1]; last.SurrogateEvals == 0 {
		t.Fatal("sa: snapshots never saw a surrogate evaluation")
	}
}

// TestCertainRejectEdges pins the skip rule of certified Metropolis
// rejection at its edges — temp → 0, where exp underflows to 0, and
// u == 0, which the exact test can still accept — and as a property:
// whenever the rule skips for a bound delta dlb, the exact test
// u < exp(−d/temp) fails for every d ≥ dlb.
func TestCertainRejectEdges(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	minU := 1.0 / (1 << 53) // the smallest positive rng.Float64 draw
	for _, tc := range []struct {
		name         string
		dlb, temp, u float64
		want         bool
	}{
		{"underflow-min-u", 1e-12, tiny, minU, true},
		{"underflow-u0", 1e-12, tiny, 0, false},
		{"zero-temp", 1, 0, 0.5, true},
		{"zero-temp-u0", 1, 0, 0, false},
		{"hot", 1, 1e6, 0.999, false},
		{"cold", 50, 1, 0.5, true},
	} {
		if got := certainReject(tc.dlb, tc.temp, tc.u); got != tc.want {
			t.Errorf("%s: certainReject(%g, %g, %g) = %v, want %v",
				tc.name, tc.dlb, tc.temp, tc.u, got, tc.want)
		}
		if tc.want && tc.u < math.Exp(-tc.dlb/tc.temp) {
			t.Errorf("%s: skipped a move the exact test accepts", tc.name)
		}
	}

	rng := rand.New(rand.NewSource(17))
	skips := 0
	for i := 0; i < 200000; i++ {
		temp := math.Exp(rng.Float64()*80 - 40)
		dlb := temp * rng.ExpFloat64() * 4
		if dlb <= 0 {
			continue
		}
		u := rng.Float64()
		if !certainReject(dlb, temp, u) {
			continue
		}
		skips++
		for _, d := range []float64{dlb, math.Nextafter(dlb, math.Inf(1)), dlb * (1 + 1e-12), dlb * 2} {
			if u < math.Exp(-d/temp) {
				t.Fatalf("skip at dlb=%g temp=%g u=%g, but d=%g is accepted", dlb, temp, u, d)
			}
		}
	}
	if skips == 0 {
		t.Fatal("property sweep never exercised a skip")
	}
}

// TestAnnealerTierABitIdentical pins certified Metropolis rejection at
// the engine level with the synthetic bound: an Annealer over a
// CutoffObjective reproduces the uncertified walk bit for bit, including
// through reheats, while skipping exact pricings.
func TestAnnealerTierABitIdentical(t *testing.T) {
	p, w := testProblem(t, 4, 3, 10)
	// run returns the walk's result, its last progress snapshot and the
	// number of temperature steps it ran.
	run := func(obj Objective, reheats int) (*Result, Progress, int) {
		prob := p
		prob.Obj = obj
		var last Progress
		steps := 0
		res, err := (&Annealer{Problem: prob, Seed: 5, TempSteps: 60, MovesPerTemp: 30,
			Alpha: 0.8, StallSteps: 4, Reheats: reheats,
			OnProgress: func(pr Progress) { last, steps = pr, steps+1 }}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, last, steps
	}
	bare, _, _ := run(w, 2)
	bnd := &boundWire{w: w, eps: 1e-9}
	tiered, last, steps := run(bnd, 2)
	if !mapping.Equal(bare.Best, tiered.Best) ||
		math.Float64bits(bare.BestCost) != math.Float64bits(tiered.BestCost) ||
		bare.Evaluations != tiered.Evaluations || bare.Improvements != tiered.Improvements {
		t.Fatalf("tiered SA (%v, %g, %d evals, %d impr) != bare (%v, %g, %d evals, %d impr)",
			tiered.Best, tiered.BestCost, tiered.Evaluations, tiered.Improvements,
			bare.Best, bare.BestCost, bare.Evaluations, bare.Improvements)
	}
	if tiered.BoundSkips == 0 || tiered.ExactEvals >= bare.ExactEvals {
		t.Fatalf("bound saved nothing: %d skips, %d vs %d exact", tiered.BoundSkips,
			tiered.ExactEvals, bare.ExactEvals)
	}
	// A reheat shows as temperature steps past the point where the same
	// walk without reheats stalls out; accepted moves show in progress.
	_, _, cold := run(&boundWire{w: w, eps: 1e-9}, 0)
	if steps <= cold || last.Accepted == 0 {
		t.Fatalf("walk never reheated (%d steps, %d without reheats) or never accepted a move (%d)",
			steps, cold, last.Accepted)
	}
	if int64(bnd.cuts) != tiered.BoundSkips {
		t.Fatalf("%d pricings cut at the bound, %d bound skips", bnd.cuts, tiered.BoundSkips)
	}
	checkTierInvariant(t, "sa/bare", bare)
	checkTierInvariant(t, "sa/tiered", tiered)
}
