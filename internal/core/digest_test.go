package core_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/noc"
	"repro/internal/search"
	"repro/internal/topology"
)

// exploreDigest is the FNV-1a 64 digest of every ExploreResult and
// Progress snapshot the sweep of TestExploreDigestPinned produces. It was
// computed before the search engines' core loops were merged into shared
// kernels; a change that moves one RNG draw, counter, cost bit or front
// point changes it.
const exploreDigest uint64 = 0xbd3991fab28142ba

// TestExploreDigestPinned is core.Explore's cross-commit oracle over the
// real evaluators: three small Table-1 rows, every strategy × method
// (tier-A hill, tabu and SA come with plain CDCM), surrogate SA and
// Pareto, and exhaustive search unlimited, anchored and under ESLimit.
// Runs use one worker so the progress stream has a fixed order.
func TestExploreDigestPinned(t *testing.T) {
	suite, err := exp.Table1Suite()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{"romberg-4w": true, "tgff-2x4-a": true, "tgff-3x3-a": true}
	h := fnv.New64a()
	seen := 0
	for _, w := range suite {
		if !rows[w.Name] {
			continue
		}
		seen++
		mesh, err := w.Mesh()
		if err != nil {
			t.Fatal(err)
		}
		fs := digestFaults(t, mesh)
		cfg := noc.Default()
		base := core.Options{Seed: 11, TempSteps: 10, MovesPerTemp: 12, StallSteps: 2,
			Reheats: 1, Samples: 40, FrontSize: 6, Workers: 1}
		type variant struct {
			name string
			opts core.Options
		}
		with := func(name string, edit func(o *core.Options)) variant {
			o := base
			edit(&o)
			return variant{name, o}
		}
		variants := []variant{
			with("sa", func(o *core.Options) { o.Method = core.MethodSA }),
			with("sa-restarts", func(o *core.Options) { o.Method = core.MethodSA; o.Restarts = 2 }),
			with("sa-surrogate", func(o *core.Options) {
				o.Method = core.MethodSA
				o.Surrogate, o.SurrogateSamples = true, 12
			}),
			with("es-limit", func(o *core.Options) { o.Method = core.MethodES; o.ESLimit = 300 }),
			with("es-limit-anchor", func(o *core.Options) {
				o.Method = core.MethodES
				o.ESLimit, o.ESAnchor = 300, true
			}),
			with("random", func(o *core.Options) { o.Method = core.MethodRandom }),
			with("hill", func(o *core.Options) { o.Method = core.MethodHill }),
			with("hill-greedy", func(o *core.Options) { o.Method = core.MethodHill; o.SeedGreedy = true }),
			with("tabu", func(o *core.Options) { o.Method = core.MethodTabu }),
		}
		if mesh.NumTiles() <= 8 {
			variants = append(variants,
				with("es", func(o *core.Options) { o.Method = core.MethodES }),
				with("es-anchor", func(o *core.Options) { o.Method = core.MethodES; o.ESAnchor = true }))
		}
		for _, strat := range []core.Strategy{core.StrategyCWM, core.StrategyCDCM,
			core.StrategyPareto, core.StrategyResilience} {
			for _, v := range variants {
				if strat == core.StrategyPareto && v.opts.Method != core.MethodSA {
					continue // the front engine runs only SA
				}
				opts := v.opts
				if strat == core.StrategyResilience {
					opts.Faults = fs
				}
				label := fmt.Sprintf("%s/%s/%s", w.Name, strat, v.name)
				opts.OnProgress = func(p search.Progress) { fmt.Fprintf(h, "%s|%+v\n", label, p) }
				res, err := core.Explore(strat, mesh, cfg, energy.Tech007, w.G, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				digestExplore(h, label, res)
			}
		}
		// The faulted Pareto front and CWM with an attached resilience
		// report.
		for _, strat := range []core.Strategy{core.StrategyPareto, core.StrategyCWM} {
			opts := base
			opts.Faults = fs
			label := fmt.Sprintf("%s/%s/faults", w.Name, strat)
			opts.OnProgress = func(p search.Progress) { fmt.Fprintf(h, "%s|%+v\n", label, p) }
			res, err := core.Explore(strat, mesh, cfg, energy.Tech007, w.G, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			digestExplore(h, label, res)
		}
	}
	if seen != len(rows) {
		t.Fatalf("found %d of %d Table-1 rows", seen, len(rows))
	}
	if got := h.Sum64(); got != exploreDigest {
		t.Fatalf("explore digest = %#x, want %#x", got, exploreDigest)
	}
}

// digestFaults draws the first non-empty fault set at rate 0.2 for mesh.
func digestFaults(t *testing.T, mesh *topology.Mesh) *topology.FaultSet {
	t.Helper()
	for seed := int64(1); seed < 100; seed++ {
		fs, err := topology.GenerateFaults(mesh, 0.2, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !fs.Empty() {
			return fs
		}
	}
	t.Fatal("no non-empty fault draw")
	return nil
}

// digestExplore folds every field of res into h. %v prints float64 in its
// shortest round-trip form, so equal digests mean bit-equal values.
func digestExplore(h io.Writer, label string, res *core.ExploreResult) {
	fmt.Fprintf(h, "%s|%v|%+v|%v|%+v\n", label, res.Strategy, *res.Search, res.Best, res.Metrics)
	if res.Front != nil {
		fmt.Fprintf(h, "front|%+v\n", *res.Front)
	}
	if res.Resilience != nil {
		fmt.Fprintf(h, "resilience|%+v\n", *res.Resilience)
	}
}
