package repro_test

// One benchmark per table and figure of the paper (see DESIGN.md §6 for
// the experiment index). Custom metrics carry the reproduced quantities:
//
//	go test -bench=. -benchmem
//
// BenchmarkTable2_* report etr_pct / ecs035_pct / ecs007_pct per NoC
// size; BenchmarkCPUTimeRatio reports the CDCM/CWM evaluation cost ratio
// (Section 5); BenchmarkVsRandom reports the guided-vs-random saving of
// reference [4].

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/appgen"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wormhole"
)

var (
	suiteOnce sync.Once
	suite     []exp.Workload
	suiteErr  error
)

func table1Suite(b *testing.B) []exp.Workload {
	b.Helper()
	suiteOnce.Do(func() { suite, suiteErr = exp.Table1Suite() })
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

// BenchmarkTable1Suite regenerates the 18-workload suite of Table 1.
func BenchmarkTable1Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := exp.Table1Suite()
		if err != nil {
			b.Fatal(err)
		}
		if len(s) != 18 {
			b.Fatalf("suite = %d workloads", len(s))
		}
	}
}

// benchTable2Size runs the Table-2 protocol for one NoC-size row and
// reports the reproduced ETR/ECS as custom metrics.
func benchTable2Size(b *testing.B, size string, budget core.Options) {
	all := table1Suite(b)
	var ws []exp.Workload
	for _, w := range all {
		if w.NoCSize() == size {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		b.Fatalf("no workloads of size %s", size)
	}
	var rep *exp.Table2Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = exp.RunTable2(ws, exp.Table2Options{
			Search: budget,
			Seeds:  []int64{1},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	row := rep.Rows[0]
	b.ReportMetric(row.ETR*100, "etr_pct")
	b.ReportMetric(row.ECS["0.35um"]*100, "ecs035_pct")
	b.ReportMetric(row.ECS["0.07um"]*100, "ecs007_pct")
}

// The eight Table-2 rows. Small sizes use the harness defaults; the large
// meshes use a bounded annealing budget so a bench iteration stays in the
// tens of seconds (the full-budget numbers are in EXPERIMENTS.md, from
// cmd/nocexp).
func BenchmarkTable2_3x2(b *testing.B) { benchTable2Size(b, "3x2", core.Options{}) }
func BenchmarkTable2_2x4(b *testing.B) { benchTable2Size(b, "2x4", core.Options{}) }
func BenchmarkTable2_3x3(b *testing.B) { benchTable2Size(b, "3x3", core.Options{}) }
func BenchmarkTable2_2x5(b *testing.B) { benchTable2Size(b, "2x5", core.Options{}) }
func BenchmarkTable2_3x4(b *testing.B) { benchTable2Size(b, "3x4", core.Options{}) }

func largeBudget(tiles int) core.Options {
	return core.Options{
		Method:       core.MethodSA,
		TempSteps:    80,
		MovesPerTemp: 5 * tiles,
		StallSteps:   20,
		Reheats:      1,
	}
}

func BenchmarkTable2_8x8(b *testing.B)   { benchTable2Size(b, "8x8", largeBudget(64)) }
func BenchmarkTable2_10x10(b *testing.B) { benchTable2Size(b, "10x10", largeBudget(100)) }
func BenchmarkTable2_12x10(b *testing.B) { benchTable2Size(b, "12x10", largeBudget(120)) }

// BenchmarkFigure2CWMEvaluation measures the CWM objective on the paper
// example (the Figure-2 computation).
func BenchmarkFigure2CWMEvaluation(b *testing.B) {
	mesh, _ := topology.NewMesh(2, 2)
	cwm, err := core.NewCWM(mesh, noc.PaperExample(), energy.PaperExample(),
		model.PaperExampleCWG())
	if err != nil {
		b.Fatal(err)
	}
	mp := mapping.Mapping{1, 0, 3, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cwm.Cost(mp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3CDCMEvaluation measures the CDCM simulation of the
// paper example (the Figure-3 computation: 6 packets, contention, texec)
// on the search engines' evaluation hot path: one warm scratch per lane,
// allocation-free in steady state (RunScratch).
func BenchmarkFigure3CDCMEvaluation(b *testing.B) {
	mesh, _ := topology.NewMesh(2, 2)
	sim, err := wormhole.NewSimulator(mesh, noc.PaperExample(), model.PaperExampleCDCG())
	if err != nil {
		b.Fatal(err)
	}
	mp := mapping.Mapping{1, 0, 3, 2}
	sc := sim.NewScratch()
	if _, err := sim.RunScratch(mp, sc); err != nil { // warm the scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunScratch(mp, sc)
		if err != nil {
			b.Fatal(err)
		}
		if res.ExecCycles != 100 {
			b.Fatalf("texec = %d", res.ExecCycles)
		}
	}
}

// BenchmarkPriceBelowProbe is the layer-3 cost of one CDCM.PriceBelow
// on the annealer's access pattern: each op applies one swap of a fixed
// random sequence to a fixed random mapping, prices the candidate and
// undoes the swap. The rejection test sets how far a pricing runs:
// "tierA" stops at the first bound (the uncontended critical path),
// "load" declines it and stops at the port-load bound when that is
// offered (a candidate without one is simulated in full), and "full"
// declines every bound. cut_ratio is the share of candidates skipped. Two instances: the paper's
// Figure-3 example, whose four cores are too few for the port-load
// bound (see wormhole.Simulator.PortLoadBound), so "load" simulates it
// in full, and the largest Table-1 row (12x10, 99 cores).
func BenchmarkPriceBelowProbe(b *testing.B) {
	type instance struct {
		name string
		mesh *topology.Mesh
		cfg  noc.Config
		tech energy.Tech
		g    *model.CDCG
	}
	fig3Mesh, err := topology.NewMesh(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	largeMesh, largeCfg, largeG := largeInstance(b)
	var calls int
	modes := []struct {
		name   string
		reject func(float64) bool
	}{
		{"tierA", func(float64) bool { return true }},
		{"load", func(float64) bool {
			calls++
			return calls == 2
		}},
		{"full", func(float64) bool { return false }},
	}
	for _, in := range []instance{
		{"Figure3", fig3Mesh, noc.PaperExample(), energy.PaperExample(), model.PaperExampleCDCG()},
		{"12x10", largeMesh, largeCfg, energy.Tech007, largeG},
	} {
		cdcm, err := core.NewCDCM(in.mesh, in.cfg, in.tech, in.g)
		if err != nil {
			b.Fatal(err)
		}
		tiles := in.mesh.NumTiles()
		rng := rand.New(rand.NewSource(1))
		mp, err := mapping.Random(rng, in.g.NumCores(), tiles)
		if err != nil {
			b.Fatal(err)
		}
		occ := mp.Occupants(tiles)
		swaps := make([][2]topology.TileID, 256)
		for i := range swaps {
			for swaps[i][0] == swaps[i][1] {
				swaps[i] = [2]topology.TileID{mp[rng.Intn(len(mp))], topology.TileID(rng.Intn(tiles))}
			}
		}
		for _, mode := range modes {
			b.Run(in.name+"/"+mode.name, func(b *testing.B) {
				probe := func(i int) bool {
					sw := swaps[i%len(swaps)]
					mapping.SwapTiles(mp, occ, sw[0], sw[1])
					calls = 0
					_, skipped, err := cdcm.PriceBelow(mp, mode.reject)
					if err != nil {
						b.Fatal(err)
					}
					mapping.SwapTiles(mp, occ, sw[0], sw[1])
					return skipped
				}
				for i := range swaps { // warm the scratch
					probe(i)
				}
				var cuts int
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if probe(i) {
						cuts++
					}
				}
				b.ReportMetric(float64(cuts)/float64(b.N), "cut_ratio")
			})
		}
	}
}

// BenchmarkFigure4Gantt renders the Figure-4 timing diagram.
func BenchmarkFigure4Gantt(b *testing.B) {
	mesh, _ := topology.NewMesh(2, 2)
	cfg := noc.PaperExample()
	g := model.PaperExampleCDCG()
	sim, err := wormhole.NewSimulator(mesh, cfg, g)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(mapping.Mapping{1, 0, 3, 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := trace.Gantt(g, cfg, res, 100); len(out) == 0 {
			b.Fatal("empty diagram")
		}
	}
}

// BenchmarkEvaluatorCWM / BenchmarkEvaluatorCDCM measure per-evaluation
// cost on a large Table-1 instance (the Section-5 CPU-time comparison).
func largeInstance(b *testing.B) (*topology.Mesh, noc.Config, *model.CDCG) {
	b.Helper()
	for _, w := range table1Suite(b) {
		if w.Name == "tgff-12x10" {
			mesh, err := w.Mesh()
			if err != nil {
				b.Fatal(err)
			}
			return mesh, noc.Default(), w.G
		}
	}
	b.Fatal("tgff-12x10 missing")
	return nil, noc.Config{}, nil
}

func BenchmarkEvaluatorCWM(b *testing.B) {
	mesh, cfg, g := largeInstance(b)
	cwm, err := core.NewCWM(mesh, cfg, energy.Tech007, g.ToCWG())
	if err != nil {
		b.Fatal(err)
	}
	mp := mapping.Identity(g.NumCores())
	if _, err := cwm.Cost(mp); err != nil { // warm route cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cwm.Cost(mp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluatorCDCM(b *testing.B) {
	mesh, cfg, g := largeInstance(b)
	cdcm, err := core.NewCDCM(mesh, cfg, energy.Tech007, g)
	if err != nil {
		b.Fatal(err)
	}
	mp := mapping.Identity(g.NumCores())
	if _, err := cdcm.Cost(mp); err != nil { // warm the scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cdcm.Cost(mp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstrumentedEval prices the observability layer's hot-path
// instrumentation: the same large-instance CWM/CDCM evaluations as
// above, bare versus with the evaluation counter attached (what every
// nocd job wires through core.Options.EvalCounter — one atomic add per
// evaluation). The instrumented paths must stay allocation-free, and
// the budget for the counted-over-bare slowdown is two percent; CI
// uploads this benchmark as its own artifact to track that margin.
func BenchmarkInstrumentedEval(b *testing.B) {
	mesh, cfg, g := largeInstance(b)
	runCWM := func(b *testing.B, evals *obs.Counter) {
		cwm, err := core.NewCWM(mesh, cfg, energy.Tech007, g.ToCWG())
		if err != nil {
			b.Fatal(err)
		}
		cwm.Evals = evals
		mp := mapping.Identity(g.NumCores())
		if _, err := cwm.Cost(mp); err != nil { // warm route cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cwm.Cost(mp); err != nil {
				b.Fatal(err)
			}
		}
	}
	runCDCM := func(b *testing.B, evals *obs.Counter) {
		cdcm, err := core.NewCDCM(mesh, cfg, energy.Tech007, g)
		if err != nil {
			b.Fatal(err)
		}
		cdcm.Evals = evals
		mp := mapping.Identity(g.NumCores())
		if _, err := cdcm.Cost(mp); err != nil { // warm the scratch
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cdcm.Cost(mp); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("CWMBare", func(b *testing.B) { runCWM(b, nil) })
	b.Run("CWMCounted", func(b *testing.B) { runCWM(b, new(obs.Counter)) })
	b.Run("CDCMBare", func(b *testing.B) { runCDCM(b, nil) })
	b.Run("CDCMCounted", func(b *testing.B) { runCDCM(b, new(obs.Counter)) })
}

// BenchmarkEvaluatorCDCMParallel measures concurrent CDCM evaluation of
// the same large instance: one shared simulator core, one clone (scratch)
// per goroutine — the configuration every parallel search engine runs.
func BenchmarkEvaluatorCDCMParallel(b *testing.B) {
	mesh, cfg, g := largeInstance(b)
	cdcm, err := core.NewCDCM(mesh, cfg, energy.Tech007, g)
	if err != nil {
		b.Fatal(err)
	}
	mp := mapping.Identity(g.NumCores())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		lane := cdcm.Clone()
		for pb.Next() {
			if _, err := lane.Cost(mp); err != nil {
				// Fatal must not run off the benchmark goroutine.
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkCPUTimeRatio reports the measured CDCM/CWM per-evaluation cost
// ratio across the small workloads (Section 5's "worst case took only 23%
// more CPU time" claim; see EXPERIMENTS.md for why our ratio differs).
func BenchmarkCPUTimeRatio(b *testing.B) {
	all := table1Suite(b)
	var small []exp.Workload
	for _, w := range all {
		if w.MeshW*w.MeshH <= 12 {
			small = append(small, w)
		}
	}
	var worst float64
	for i := 0; i < b.N; i++ {
		outs, err := exp.RunCPUTime(small, noc.Config{}, 20)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, o := range outs {
			if o.Ratio > worst {
				worst = o.Ratio
			}
		}
	}
	b.ReportMetric(worst, "worst_cdcm_over_cwm")
}

// BenchmarkExhaustiveVsSA certifies SA against exhaustive search on a
// small instance (the Section-5 small-NoC observation).
func BenchmarkExhaustiveVsSA(b *testing.B) {
	all := table1Suite(b)
	var ws []exp.Workload
	for _, w := range all {
		if w.NoCSize() == "3x2" {
			ws = append(ws, w)
		}
	}
	var matches, total int
	for i := 0; i < b.N; i++ {
		outs, err := exp.RunESvsSA(ws, noc.Config{}, 1000, 1)
		if err != nil {
			b.Fatal(err)
		}
		matches, total = 0, len(outs)
		for _, o := range outs {
			if o.SAMatches {
				matches++
			}
		}
	}
	b.ReportMetric(float64(matches)/float64(total)*100, "sa_optimal_pct")
}

// BenchmarkVsRandom reports the guided-vs-random-mapping energy saving
// (the >60% claim of reference [4]).
func BenchmarkVsRandom(b *testing.B) {
	all := table1Suite(b)
	var ws []exp.Workload
	for _, w := range all {
		if w.MeshW*w.MeshH <= 12 {
			ws = append(ws, w)
		}
	}
	var avg float64
	for i := 0; i < b.N; i++ {
		outs, err := exp.RunVsRandom(ws, noc.Config{}, 60, 1)
		if err != nil {
			b.Fatal(err)
		}
		avg = 0
		for _, o := range outs {
			avg += o.Saving
		}
		avg /= float64(len(outs))
	}
	b.ReportMetric(avg*100, "saving_pct")
}

// BenchmarkAnnealer measures annealing throughput on a mid-size CDCM
// problem (the framework's hot loop).
func BenchmarkAnnealer(b *testing.B) {
	all := table1Suite(b)
	var w exp.Workload
	for _, cand := range all {
		if cand.Name == "fft8-gather" {
			w = cand
		}
	}
	mesh, err := w.Mesh()
	if err != nil {
		b.Fatal(err)
	}
	cdcm, err := core.NewCDCM(mesh, noc.Default(), energy.Tech007, w.G)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := (&search.Annealer{
			Problem:   search.Problem{Mesh: mesh, NumCores: w.G.NumCores(), Obj: cdcm},
			Seed:      int64(i),
			TempSteps: 30,
		}).Run()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// parallelInstance is the workers=1-vs-N benchmark workload: a generated
// 8-core app with parallel dependence chains on a 4x4 mesh (half-empty,
// so swaps move cores across real distance and contention varies with
// placement).
func parallelInstance(b *testing.B) (*topology.Mesh, noc.Config, *model.CDCG) {
	b.Helper()
	mesh, err := topology.NewMesh(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	g, err := appgen.Generate(appgen.Params{
		Name: "bench-8core", Cores: 8, Packets: 64, TotalBits: 40000, Seed: 42, Chains: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	return mesh, noc.Default(), g
}

// benchCompareModels runs the full Table-2 protocol on the 4x4 instance
// with the given worker count. With workers=1 every leg runs serially;
// with workers=NumCPU the CWM leg and both per-tech CDCM explorations
// run concurrently, which is where the >=2x wall-clock win comes from on
// multi-core hardware (the result itself is bit-identical either way —
// see TestCompareModelsDeterministicAcrossWorkers).
func benchCompareModels(b *testing.B, workers int) {
	mesh, cfg, g := parallelInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := core.CompareModels(mesh, cfg, g, core.CompareOptions{
			Options: core.Options{
				Method: core.MethodSA, Seed: 1, TempSteps: 40, Workers: workers,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(cmp.CDCMMappings) == 0 {
			b.Fatal("empty comparison")
		}
	}
}

func BenchmarkCompareModelsWorkers1(b *testing.B) { benchCompareModels(b, 1) }
func BenchmarkCompareModelsWorkersN(b *testing.B) { benchCompareModels(b, runtime.NumCPU()) }

// benchMultiRestartSA runs an 8-restart CDCM annealing on the 4x4
// instance. Restarts are fixed, so workers=1 and workers=N do the same
// work and find the same mapping; N workers split the restarts.
func benchMultiRestartSA(b *testing.B, workers int) {
	mesh, cfg, g := parallelInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Explore(core.StrategyCDCM, mesh, cfg, energy.Tech007, g, core.Options{
			Method: core.MethodSA, Seed: 1, TempSteps: 30, Restarts: 8, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Search.BestCost <= 0 {
			b.Fatal("no cost")
		}
	}
}

func BenchmarkMultiRestartSAWorkers1(b *testing.B) { benchMultiRestartSA(b, 1) }
func BenchmarkMultiRestartSAWorkersN(b *testing.B) { benchMultiRestartSA(b, runtime.NumCPU()) }

// benchShardedES certifies the optimum for 5 cores on a 3x3 mesh
// (9!/4! = 15120 placements) under the CWM objective, serial vs sharded.
func benchShardedES(b *testing.B, workers int) {
	mesh, err := topology.NewMesh(3, 3)
	if err != nil {
		b.Fatal(err)
	}
	g, err := appgen.Generate(appgen.Params{
		Name: "bench-5core", Cores: 5, Packets: 24, TotalBits: 9000, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Explore(core.StrategyCWM, mesh, noc.Default(), energy.Tech007, g,
			core.Options{Method: core.MethodES, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Search.Certified {
			b.Fatal("not certified")
		}
	}
}

func BenchmarkShardedESWorkers1(b *testing.B) { benchShardedES(b, 1) }
func BenchmarkShardedESWorkersN(b *testing.B) { benchShardedES(b, runtime.NumCPU()) }

// deltaBenchInstance is the incremental-evaluation benchmark workload: a
// 16-core generated app on the given mesh (8x8 for the headline pair). A
// quarter-full mesh makes swaps move cores across real distance, and the
// communication-heavy app (768 packets over 232 of the 240 possible core
// pairs) makes the O(|E|) full walk carry its production-scale weight
// against the O(deg) delta path.
func deltaBenchInstance(b *testing.B, w, h, cores, packets int) (*topology.Mesh, *core.CWM) {
	b.Helper()
	mesh, err := topology.NewMesh(w, h)
	if err != nil {
		b.Fatal(err)
	}
	g, err := appgen.Generate(appgen.Params{
		Name: "bench-delta", Cores: cores, Packets: packets,
		TotalBits: int64(packets) * 625, Seed: 42, Chains: cores / 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	cwm, err := core.NewCWM(mesh, noc.Default(), energy.Tech007, g.ToCWG())
	if err != nil {
		b.Fatal(err)
	}
	return mesh, cwm
}

// benchAnnealCWMEval measures the annealer's move-evaluation hot path —
// the operation the DeltaObjective subsystem replaces — by replaying the
// annealer's own proposal distribution (first tile via a uniform core,
// second uniform over the remaining tiles) against a fixed walk state on
// the 8x8/16-core instance. The full-recompute path must materialise each
// proposal to price it (swap, full Cost, swap back); the delta path asks
// SwapDelta for the O(deg) incremental price. Each benchmark op is one
// proposal evaluation.
func benchAnnealCWMEval(b *testing.B, delta bool) {
	mesh, cwm := deltaBenchInstance(b, 8, 8, 16, 768)
	numTiles := mesh.NumTiles()
	rng := rand.New(rand.NewSource(9))
	mp, err := mapping.Random(rng, cwm.G.NumCores(), numTiles)
	if err != nil {
		b.Fatal(err)
	}
	occ := mp.Occupants(numTiles)
	cost, err := cwm.Reset(mp)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-generate the proposal stream so rng cost stays out of the
	// measurement, and replay it once before the timer to warm the route
	// cache exactly as a real run would.
	type prop struct{ ta, tb topology.TileID }
	props := make([]prop, 4096)
	for i := range props {
		for {
			ta := mp[rng.Intn(len(mp))]
			tb := topology.TileID(rng.Intn(numTiles))
			if ta != tb {
				props[i] = prop{ta, tb}
				break
			}
		}
	}
	warm := func() {
		for _, pr := range props {
			if _, err := cwm.SwapDelta(occ, pr.ta, pr.tb); err != nil {
				b.Fatal(err)
			}
		}
	}
	warm()
	b.ResetTimer()
	if delta {
		for i := 0; i < b.N; i++ {
			pr := props[i&4095]
			if _, err := cwm.SwapDelta(occ, pr.ta, pr.tb); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	for i := 0; i < b.N; i++ {
		pr := props[i&4095]
		mapping.SwapTiles(mp, occ, pr.ta, pr.tb)
		c, err := cwm.Cost(mp)
		mapping.SwapTiles(mp, occ, pr.ta, pr.tb)
		if err != nil {
			b.Fatal(err)
		}
		_ = c
	}
	_ = cost
}

// BenchmarkAnnealCWMFullEval / BenchmarkAnnealCWMDeltaEval are the
// headline pair of the incremental-evaluation subsystem: the per-proposal
// pricing cost on the 8x8 mesh, 16-core instance (delta ≥ 5x faster; see
// README "Incremental evaluation" for measured numbers). The runs below
// confirm the two paths return bit-identical results end to end.
func BenchmarkAnnealCWMFullEval(b *testing.B)  { benchAnnealCWMEval(b, false) }
func BenchmarkAnnealCWMDeltaEval(b *testing.B) { benchAnnealCWMEval(b, true) }

// benchAnnealCWMRun anneals a CWM instance end to end. delta=true hands
// the engine the CWM itself (it type-asserts search.DeltaObjective and
// prices each move in O(deg)); delta=false hides the interface behind an
// ObjectiveFunc, forcing the historical full-recompute path. Both runs
// are seeded identically and produce bit-identical Best mappings — see
// TestEnginesDeltaVsFullEquivalence. Whole-run ratios sit below the
// per-evaluation ratio because the engine's own per-move work (proposal
// draws, Metropolis test, state swaps) is untouched by the delta path;
// the larger the instance, the closer the run ratio gets to the
// evaluation ratio.
func benchAnnealCWMRun(b *testing.B, w, h, cores, packets int, delta bool) {
	mesh, cwm := deltaBenchInstance(b, w, h, cores, packets)
	var obj search.Objective = cwm
	if !delta {
		obj = search.ObjectiveFunc(cwm.Cost)
	}
	prob := search.Problem{Mesh: mesh, NumCores: cwm.G.NumCores(), Obj: obj}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := (&search.Annealer{Problem: prob, Seed: 1, TempSteps: 30}).Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Evaluations), "evals")
	}
}

func BenchmarkAnnealCWMRunFull(b *testing.B)  { benchAnnealCWMRun(b, 8, 8, 16, 768, false) }
func BenchmarkAnnealCWMRunDelta(b *testing.B) { benchAnnealCWMRun(b, 8, 8, 16, 768, true) }

// The 16x16/64-core pair shows the asymptotics: with more cores the
// affected-edge share of a swap shrinks, so the whole-run win grows.
func BenchmarkAnnealCWMLargeRunFull(b *testing.B)  { benchAnnealCWMRun(b, 16, 16, 64, 1024, false) }
func BenchmarkAnnealCWMLargeRunDelta(b *testing.B) { benchAnnealCWMRun(b, 16, 16, 64, 1024, true) }

// benchHillCWM measures the hill climber's O(n²) neighbourhood scan on
// the 8x8/16-core instance — the engine where incremental pricing pays
// off most, because the scan is almost pure evaluation.
func benchHillCWM(b *testing.B, delta bool) {
	mesh, cwm := deltaBenchInstance(b, 8, 8, 16, 768)
	var obj search.Objective = cwm
	if !delta {
		obj = search.ObjectiveFunc(cwm.Cost)
	}
	prob := search.Problem{Mesh: mesh, NumCores: cwm.G.NumCores(), Obj: obj}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&search.HillClimber{Problem: prob, Seed: 1, Restarts: 1}).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHillCWMFull(b *testing.B)  { benchHillCWM(b, false) }
func BenchmarkHillCWMDelta(b *testing.B) { benchHillCWM(b, true) }

// BenchmarkParetoFrontCWM runs the Pareto front engine directly over the
// CWM vector objective (dynamic energy × uncontended hop latency) on the
// 8x8/16-core delta instance — the front engine's evaluation hot loop
// over the cheap evaluator, so engine overhead (archive offers, weight
// scalarisation) dominates the profile.
func BenchmarkParetoFrontCWM(b *testing.B) {
	mesh, cwm := deltaBenchInstance(b, 8, 8, 16, 768)
	prob := search.Problem{Mesh: mesh, NumCores: cwm.G.NumCores(), Obj: cwm}
	b.ReportAllocs()
	b.ResetTimer()
	var pts int
	for i := 0; i < b.N; i++ {
		front, err := (&search.ParetoSA{Problem: prob, Seed: 1, Walks: 4, TempSteps: 20}).Run()
		if err != nil {
			b.Fatal(err)
		}
		pts = len(front.Points)
	}
	b.ReportMetric(float64(pts), "front_points")
}

// BenchmarkParetoFrontCDCM is the production configuration: the archived
// multi-walk exploration over CDCM's (dynamic, static, texec) components
// on the 4x4/8-core instance, parallel walks on clone lanes — what
// `nocmap -model pareto` runs.
func BenchmarkParetoFrontCDCM(b *testing.B) {
	mesh, cfg, g := parallelInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	var pts int
	for i := 0; i < b.N; i++ {
		res, err := core.Explore(core.StrategyPareto, mesh, cfg, energy.Tech007, g, core.Options{
			Seed: 1, TempSteps: 20, Restarts: 6, Workers: runtime.NumCPU(),
		})
		if err != nil {
			b.Fatal(err)
		}
		pts = len(res.Front.Points)
	}
	b.ReportMetric(float64(pts), "front_points")
}

// BenchmarkTieredSearchCDCM is the two-tier evaluation headline: CDCM
// searches end to end, single-tier (every candidate fully simulated,
// the pre-two-tier behaviour, run on the bare engines) versus tier-A
// (certified lower-bound filter for hill, certified Metropolis rejection
// for SA, bit-identical results) versus tier-B (opt-in calibrated
// surrogate with exact repricing of survivors). Two instances: the
// paper's Figure-3 example (2x2, light contention — the bound skips
// most of the hill climber's neighbourhood) and the largest Table-1
// workload (12x10 mesh, 99 cores — each exact simulation costs ~200µs,
// so pricing Metropolis candidates on the surrogate and simulating only
// accepted moves is a multi-x end-to-end win; CI uploads the raw bench
// output as the BENCH_twotier artifact and the >=2x margin is tracked on
// the large SA pair). Hill legs pin the skip and exact counters so a bound
// regression that silently stops filtering fails the benchmark, not
// just the trend line.
func BenchmarkTieredSearchCDCM(b *testing.B) {
	fig3 := func(b *testing.B) (*topology.Mesh, noc.Config, *model.CDCG) {
		b.Helper()
		mesh, err := topology.NewMesh(2, 2)
		if err != nil {
			b.Fatal(err)
		}
		return mesh, noc.PaperExample(), model.PaperExampleCDCG()
	}
	// The large SA schedule: fast cooling keeps the cold (low-acceptance)
	// phase long, which is where tier B pays — rejected candidates never
	// reach the simulator.
	saBudget := core.Options{
		Method: core.MethodSA, Seed: 1,
		TempSteps: 40, MovesPerTemp: 120, Alpha: 0.7,
		SurrogateSamples: 16,
	}

	b.Run("Figure3HillSingleTier", func(b *testing.B) {
		mesh, cfg, g := fig3(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cdcm, err := core.NewCDCM(mesh, cfg, energy.PaperExample(), g)
			if err != nil {
				b.Fatal(err)
			}
			prob := search.Problem{Mesh: mesh, NumCores: g.NumCores(), Obj: search.ObjectiveFunc(cdcm.Cost)}
			res, err := (&search.HillClimber{Problem: prob, Seed: 1}).Run()
			if err != nil {
				b.Fatal(err)
			}
			if res.BoundSkips != 0 || res.ExactEvals != res.Evaluations {
				b.Fatalf("bare engine reports tier counters: %+v", res)
			}
		}
	})
	b.Run("Figure3HillTierA", func(b *testing.B) {
		mesh, cfg, g := fig3(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Explore(core.StrategyCDCM, mesh, cfg, energy.PaperExample(), g,
				core.Options{Method: core.MethodHill, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if res.Search.BoundSkips == 0 {
				b.Fatal("tier-A bound never fired on Figure 3")
			}
			if i == 0 {
				b.ReportMetric(float64(res.Search.BoundSkips), "skips")
				b.ReportMetric(float64(res.Search.ExactEvals), "exact")
			}
		}
	})

	// singleTierSA is the unfiltered baseline: the bare annealer over a
	// CDCM evaluator hidden behind ObjectiveFunc, so it cannot certify and
	// every candidate is simulated. Explore would certify, so this leg
	// builds the engine itself.
	singleTierSA := func(b *testing.B, mesh *topology.Mesh, cfg noc.Config, tech energy.Tech, g *model.CDCG) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cdcm, err := core.NewCDCM(mesh, cfg, tech, g)
			if err != nil {
				b.Fatal(err)
			}
			res, err := (&search.Annealer{
				Problem: search.Problem{Mesh: mesh, NumCores: g.NumCores(), Obj: search.ObjectiveFunc(cdcm.Cost)},
				Seed:    saBudget.Seed, TempSteps: saBudget.TempSteps,
				MovesPerTemp: saBudget.MovesPerTemp, Alpha: saBudget.Alpha,
			}).Run()
			if err != nil {
				b.Fatal(err)
			}
			if res.BoundSkips != 0 || res.ExactEvals != res.Evaluations {
				b.Fatalf("bare engine reports tier counters: %+v", res)
			}
			if i == 0 {
				b.ReportMetric(float64(res.ExactEvals), "exact")
			}
		}
	}
	// tieredSA runs SA through Explore, which certifies through tier A
	// (certified Metropolis rejection) and, with surrogate set, walks on
	// tier B instead.
	tieredSA := func(b *testing.B, mesh *topology.Mesh, cfg noc.Config, tech energy.Tech, g *model.CDCG, surrogate bool) {
		opts := saBudget
		opts.Surrogate = surrogate
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Explore(core.StrategyCDCM, mesh, cfg, tech, g, opts)
			if err != nil {
				b.Fatal(err)
			}
			if surrogate == (res.Search.SurrogateEvals == 0) {
				b.Fatalf("surrogate=%v but SurrogateEvals=%d", surrogate, res.Search.SurrogateEvals)
			}
			if i == 0 {
				b.ReportMetric(float64(res.Search.ExactEvals), "exact")
				if !surrogate {
					b.ReportMetric(float64(res.Search.BoundSkips), "skips")
				}
			}
		}
	}
	b.Run("Figure3SASingleTier", func(b *testing.B) {
		mesh, cfg, g := fig3(b)
		singleTierSA(b, mesh, cfg, energy.PaperExample(), g)
	})
	b.Run("Figure3SATierA", func(b *testing.B) {
		mesh, cfg, g := fig3(b)
		tieredSA(b, mesh, cfg, energy.PaperExample(), g, false)
	})
	b.Run("Figure3SATierB", func(b *testing.B) {
		mesh, cfg, g := fig3(b)
		tieredSA(b, mesh, cfg, energy.PaperExample(), g, true)
	})
	b.Run("Large12x10SASingleTier", func(b *testing.B) {
		mesh, cfg, g := largeInstance(b)
		singleTierSA(b, mesh, cfg, energy.Tech007, g)
	})
	b.Run("Large12x10SATierA", func(b *testing.B) {
		mesh, cfg, g := largeInstance(b)
		tieredSA(b, mesh, cfg, energy.Tech007, g, false)
	})
	b.Run("Large12x10SATierB", func(b *testing.B) {
		mesh, cfg, g := largeInstance(b)
		tieredSA(b, mesh, cfg, energy.Tech007, g, true)
	})
}

// BenchmarkWormholeSimLarge measures one CDCM simulation of the largest
// Table-1 instance (99 cores, 446 packets on 12x10).
func BenchmarkWormholeSimLarge(b *testing.B) {
	mesh, cfg, g := largeInstance(b)
	sim, err := wormhole.NewSimulator(mesh, cfg, g)
	if err != nil {
		b.Fatal(err)
	}
	mp := mapping.Identity(g.NumCores())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(mp); err != nil {
			b.Fatal(err)
		}
	}
}
