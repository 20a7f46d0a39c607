// Command nocexp regenerates the paper's tables and figures.
//
// Usage:
//
//	nocexp -exp table1                  # Table 1: workload suite summary
//	nocexp -exp table2 -seeds 3         # Table 2: CDCM vs CWM (ETR/ECS)
//	nocexp -exp fig1|fig2|fig3|fig4|fig5
//	nocexp -exp esvssa                  # ES certifies SA on small NoCs
//	nocexp -exp cputime                 # CWM vs CDCM evaluation cost
//	nocexp -exp vsrandom                # guided mapping vs random ([4])
//	nocexp -exp dim3 -depth 4           # 2D vs 3D: 4x4x1 vs 2x2x4, TSV-priced
//	nocexp -exp pareto                  # energy x latency Pareto front (CDCM components)
//	nocexp -exp resilience              # fault-blind vs resilience-aware mapping under injected faults
//	nocexp -exp all
//
// Every run is deterministic for a given -seed/-seeds: -workers only
// changes how many goroutines share the work, never the results. The
// CWM legs of every experiment price candidate swaps incrementally
// (search.DeltaObjective, bit-identical to full recomputes), so the
// large-mesh rows spend their time in the CDCM simulator, not in
// re-walking communication graphs.
//
// Ctrl-C cancels the experiments that search (table2, esvssa, vsrandom,
// buffers, ablation, dim3, pareto, resilience, sensitivity); cputime
// only times evaluations, takes no context and runs to its end.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/noc"
)

func main() {
	var (
		which    = flag.String("exp", "all", "experiment: table1, table2, fig1..fig5, esvssa, cputime, vsrandom, sensitivity, buffers, ablation, dim3, pareto, resilience, all")
		seeds    = flag.Int("seeds", 1, "number of search seeds to average over (table2)")
		steps    = flag.Int("steps", 0, "SA temperature steps (0 = default)")
		moves    = flag.Int("moves", 0, "SA moves per temperature (0 = default)")
		maxTiles = flag.Int("maxtiles", 0, "skip workloads on NoCs with more tiles (0 = none)")
		esMax    = flag.Int64("esmax", 50000, "max placements for exhaustive search (esvssa)")
		samples  = flag.Int("samples", 100, "random-mapping samples (vsrandom)")
		seed     = flag.Int64("seed", 1, "base random seed")
		workers  = flag.Int("workers", runtime.NumCPU(), "parallel worker goroutines (results are seed-deterministic for any value)")
		depth    = flag.Int("depth", 4, "Z depth of the 3D shape in the dim3 experiment (2x2xD vs 4x4x1)")
		topo     = flag.String("topology", "mesh", "grid family for the dim3 experiment: mesh or torus")
		frate    = flag.Float64("faultrate", 0.08, "link-failure probability for the resilience experiment")
		fseed    = flag.Int64("faultseed", 2, "fault-injection seed for the resilience experiment")
		surr     = flag.Bool("surrogate", false, "rank SA/pareto candidates on the calibrated tier-B surrogate (reported results stay exact-repriced)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *which, *seeds, *steps, *moves, *maxTiles, *depth, *topo, *esMax, *samples, *seed, *workers, *frate, *fseed, *surr); err != nil {
		fmt.Fprintln(os.Stderr, "nocexp:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, which string, seeds, steps, moves, maxTiles, depth int, topo string, esMax int64, samples int, seed int64, workers int, faultRate float64, faultSeed int64, surrogate bool) error {
	suite, err := exp.Table1Suite()
	if err != nil {
		return err
	}
	seedList := make([]int64, seeds)
	for i := range seedList {
		seedList[i] = seed + int64(i)
	}

	do := func(name string) bool { return which == name || which == "all" }

	if do("table1") {
		fmt.Println(exp.RenderTable1(suite))
	}
	if do("fig1") || do("fig2") || do("fig3") || do("fig4") || do("fig5") || which == "all" {
		f, err := exp.NewFigureExample()
		if err != nil {
			return err
		}
		if do("fig1") {
			fmt.Println(f.RenderFigure1())
		}
		if do("fig2") {
			s, err := f.RenderFigure2()
			if err != nil {
				return err
			}
			fmt.Println(s)
		}
		if do("fig3") {
			fmt.Println(f.RenderFigure3())
		}
		if do("fig4") {
			fmt.Println(f.RenderFigure4())
		}
		if do("fig5") {
			fmt.Println(f.RenderFigure5())
		}
	}
	if do("table2") {
		// Parallelism goes to the batch level only: handing -workers to
		// Search.Workers as well would stack CompareModels' concurrent
		// legs on top of the already-saturated workload pool.
		rep, err := exp.RunTable2(suite, exp.Table2Options{
			Search:   core.Options{Method: core.MethodSA, TempSteps: steps, MovesPerTemp: moves, Ctx: ctx, Surrogate: surrogate},
			Seeds:    seedList,
			MaxTiles: maxTiles,
			Workers:  workers,
		})
		if err != nil {
			return err
		}
		fmt.Println(rep.Render())
	}
	if do("esvssa") {
		outs, err := exp.RunESvsSA(ctx, suite, noc.Config{}, esMax, seed)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderESvsSA(outs))
	}
	if do("cputime") {
		outs, err := exp.RunCPUTime(suite, noc.Config{}, 30)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderCPUTime(outs))
	}
	if do("vsrandom") {
		outs, err := exp.RunVsRandom(ctx, suite, noc.Config{}, samples, seed)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderVsRandom(outs))
	}
	if which == "buffers" { // analysis extra: not part of "all"
		var small []exp.Workload
		for _, w := range suite {
			if maxTiles == 0 || w.MeshW*w.MeshH <= maxTiles {
				small = append(small, w)
			}
		}
		outs, err := exp.RunBuffers(small, noc.Config{}, nil,
			core.Options{Method: core.MethodSA, Seed: seed, TempSteps: steps, MovesPerTemp: moves, Workers: workers, Ctx: ctx, Surrogate: surrogate})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderBuffers(outs))
	}
	if which == "ablation" { // analysis extra: not part of "all"
		var small []exp.Workload
		for _, w := range suite {
			if maxTiles == 0 || w.MeshW*w.MeshH <= maxTiles {
				small = append(small, w)
			}
		}
		outs, err := exp.RunAblations(small, nil,
			core.Options{Method: core.MethodSA, Seed: seed, TempSteps: steps, MovesPerTemp: moves, Workers: workers, Ctx: ctx, Surrogate: surrogate})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderAblations(outs))
	}
	if which == "dim3" { // analysis extra: not part of "all"
		torus := false
		switch topo {
		case "mesh":
		case "torus":
			torus = true
		default:
			return fmt.Errorf("unknown topology %q (want mesh or torus)", topo)
		}
		if depth <= 0 {
			depth = 4
		}
		g, err := exp.Dim3Workload(4 * depth) // fill both 4·depth-tile shapes
		if err != nil {
			return err
		}
		outs, err := exp.RunDim3(g, exp.DefaultDim3Shapes(depth, torus), noc.Config{},
			core.Options{Method: core.MethodSA, Seed: seed, TempSteps: steps, MovesPerTemp: moves, Workers: workers, Ctx: ctx, Surrogate: surrogate})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderDim3(outs))
	}
	if which == "pareto" { // analysis extra: not part of "all"
		g, err := exp.ParetoWorkload(0)
		if err != nil {
			return err
		}
		out, err := exp.RunPareto(g, 4, 4, noc.Config{},
			core.Options{Seed: seed, TempSteps: steps, MovesPerTemp: moves, Workers: workers, Ctx: ctx, Surrogate: surrogate})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderPareto(out))
	}
	if which == "resilience" { // analysis extra: not part of "all"
		g, err := exp.ParetoWorkload(0)
		if err != nil {
			return err
		}
		out, err := exp.RunResilience(g, 4, 4, noc.Config{},
			core.Options{Method: core.MethodSA, Seed: seed, TempSteps: steps, MovesPerTemp: moves, Workers: workers, Ctx: ctx, Surrogate: surrogate},
			faultRate, faultSeed)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderResilience(out))
	}
	if which == "sensitivity" { // analysis extra: not part of "all"
		var small []exp.Workload
		for _, w := range suite {
			if maxTiles == 0 || w.MeshW*w.MeshH <= maxTiles {
				small = append(small, w)
			}
		}
		outs, err := exp.RunSensitivity(ctx, small, noc.Config{}, samples, seed, workers)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderSensitivity(outs))
	}
	return nil
}
