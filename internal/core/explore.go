package core

import (
	"context"
	"fmt"

	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/search"
	"repro/internal/topology"
)

// Strategy selects the application model driving the exploration.
type Strategy int

// Strategies. StrategyPareto is the multi-objective mode: it explores
// under CDCM's vector components (dynamic energy, static energy,
// execution time) with the archived weight-swept annealer and returns a
// Pareto front alongside the scalar winner.
const (
	StrategyCWM Strategy = iota
	StrategyCDCM
	StrategyPareto
	// StrategyResilience optimises the fault-degradation objective
	// (core.Resilience): intact ENoC plus worst-case texec over the
	// single-fault scenarios of Options.Faults, which must be non-empty.
	StrategyResilience
)

func (s Strategy) String() string {
	switch s {
	case StrategyCWM:
		return "CWM"
	case StrategyCDCM:
		return "CDCM"
	case StrategyPareto:
		return "pareto"
	case StrategyResilience:
		return "resilience"
	}
	return "?"
}

// ParseStrategy converts a CLI string into a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "cwm", "CWM":
		return StrategyCWM, nil
	case "cdcm", "CDCM":
		return StrategyCDCM, nil
	case "pareto", "PARETO":
		return StrategyPareto, nil
	case "resilience", "RESILIENCE":
		return StrategyResilience, nil
	}
	return 0, fmt.Errorf("core: unknown mapping strategy %q", s)
}

// Method selects the search engine.
type Method int

// Methods. MethodSA is the paper's default; MethodES certifies optimality
// on small NoCs.
const (
	MethodSA Method = iota
	MethodES
	MethodRandom
	MethodHill
	MethodTabu
)

func (m Method) String() string {
	switch m {
	case MethodSA:
		return "SA"
	case MethodES:
		return "ES"
	case MethodRandom:
		return "random"
	case MethodHill:
		return "hill"
	case MethodTabu:
		return "tabu"
	}
	return "?"
}

// ParseMethod converts a CLI string into a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "sa", "SA":
		return MethodSA, nil
	case "es", "ES", "exhaustive":
		return MethodES, nil
	case "random", "rand":
		return MethodRandom, nil
	case "hill", "hc":
		return MethodHill, nil
	case "tabu":
		return MethodTabu, nil
	}
	return 0, fmt.Errorf("core: unknown search method %q", s)
}

// Options tunes one exploration run.
type Options struct {
	// Method selects the engine (default MethodSA). StrategyPareto runs
	// only MethodSA and rejects any other.
	Method Method
	// Seed drives every stochastic engine deterministically.
	Seed int64
	// TempSteps / MovesPerTemp / Alpha / StallSteps / Reheats tune the
	// annealer (0 = engine defaults).
	TempSteps    int
	MovesPerTemp int
	Alpha        float64
	StallSteps   int
	Reheats      int
	// ESLimit bounds exhaustive enumeration (0 = none).
	ESLimit int64
	// ESAnchor applies symmetry anchoring in exhaustive search.
	ESAnchor bool
	// Samples sets the random-search budget (0 = default).
	Samples int
	// Initial, when non-nil, seeds the annealer, the hill climber or the
	// Pareto engine with this mapping instead of a random one (ignored by
	// the other methods).
	Initial mapping.Mapping
	// SeedGreedy, when true and Initial is nil, warm-starts the engine
	// with the deterministic highest-traffic-first constructive placement
	// (mapping.SeedGreedy over the application's communication volumes).
	// It only changes the starting point, never the engine's moves, and
	// the greedy mapping is deterministic, so results stay reproducible.
	SeedGreedy bool
	// FrontSize bounds the Pareto front returned by StrategyPareto
	// (0 = search.DefaultFrontSize); ignored by the scalar strategies.
	FrontSize int
	// Restarts runs MethodSA as a multi-restart: Restarts independent
	// annealing runs with seeds Seed..Seed+Restarts-1, best-cost winner,
	// lowest restart index breaking ties (0 or 1 = single run, the
	// historical behaviour). Results depend on Restarts, never on Workers.
	Restarts int
	// Workers bounds the goroutines used by the parallel paths: SA
	// restarts, exhaustive-search shards and the independent legs of
	// CompareModels (0 or 1 = serial). For a fixed Seed the results are
	// bit-identical across Workers values; Workers only buys wall-clock.
	Workers int
	// Surrogate enables the tier-B calibrated surrogate for the
	// Metropolis engines (MethodSA under StrategyCDCM, and the intact
	// StrategyPareto): the walk prices candidates on an analytic
	// predictor fitted against exact simulations at build time, and only
	// accepted moves (plus the final winner and every front point) pay an
	// exact simulation. Default off — surrogate runs are deterministic
	// (fixed Seed ⇒ fixed fit ⇒ fixed walk, for every Workers value) but
	// not bit-identical to a surrogate-free run. The flag is ignored by
	// the engines that cannot use it: CWM (already cheap), the
	// strict-improvement and enumerating methods, and the
	// resilience/faulted-pareto objectives.
	Surrogate bool
	// SurrogateSamples is the tier-B calibration budget — the number of
	// exact simulations the per-instance fit consumes (0 =
	// DefaultSurrogateSamples). Ignored unless Surrogate is set.
	SurrogateSamples int
	// Faults, when non-empty, is the fault set resilience runs score
	// against. StrategyResilience requires it; with the other strategies
	// it leaves the search objective untouched but makes Explore attach a
	// ResilienceScore for the winning mapping (and StrategyPareto explores
	// the resilience axes instead of CDCM's). Nil or empty is the intact
	// behaviour, bit for bit.
	Faults *topology.FaultSet
	// Ctx, when non-nil, cancels a running exploration: every engine
	// polls it on its hot loop and Explore returns ctx.Err(). A nil Ctx
	// (the default) is bit-identical to the historical behaviour — the
	// mapping-as-a-service daemon relies on this to share one search
	// code path between batch and cancellable runs.
	Ctx context.Context
	// OnProgress, when non-nil, receives periodic search.Progress
	// snapshots. The parallel engines invoke it concurrently from their
	// worker lanes; see search.ProgressFunc for the contract.
	OnProgress search.ProgressFunc
	// OnPhase, when non-nil, is invoked from Explore's own goroutine at
	// the start of each exploration phase — "build" (evaluator
	// construction), "search" (engine run), "price" (winner pricing on
	// the CDCM simulator). Observational only: the calls never feed back
	// into the walk, so attaching one is bit-identical to not.
	OnPhase func(phase string)
	// EvalCounter, when non-nil, is incremented once per objective
	// pricing by the instrumented evaluators — CWM full costs and
	// incremental swap probes, CDCM simulations — across every worker
	// lane. The concrete counter type keeps the hot paths
	// allocation-free (one atomic add, no interface boxing).
	EvalCounter *obs.Counter
}

// ExploreResult is the outcome of one exploration.
type ExploreResult struct {
	// Strategy that produced the result.
	Strategy Strategy
	// Search holds engine statistics (evaluations, improvements, ...).
	Search *search.Result
	// Best is the winning mapping.
	Best mapping.Mapping
	// Metrics prices Best with the CDCM simulator under the exploration
	// tech — even for CWM-driven runs, because pricing time and static
	// energy requires the dependence model (the paper's point).
	Metrics Metrics
	// Front is the Pareto front (StrategyPareto only, nil otherwise). Its
	// lowest-collapse point is Best; the scalar Search fields summarise
	// the same run (BestCost = that point's ENoC collapse).
	Front *search.FrontResult
	// Resilience is the fault-degradation report for Best, present
	// whenever Options.Faults was non-empty (any strategy), nil otherwise.
	Resilience *ResilienceScore
}

// GreedyInitial builds the constructive warm-start placement for an
// application: mapping.SeedGreedy over the CWG communication volumes
// (the deterministic highest-traffic-first heuristic).
func GreedyInitial(mesh *topology.Mesh, g *model.CDCG) (mapping.Mapping, error) {
	cwg := g.ToCWG()
	edges := make([]mapping.TrafficEdge, len(cwg.Edges))
	for i, e := range cwg.Edges {
		edges[i] = mapping.TrafficEdge{A: e.Src, B: e.Dst, Bits: e.Bits}
	}
	return mapping.SeedGreedy(mesh, cwg.NumCores(), edges)
}

// Explore searches the mapping space of application g on the given NoC
// under the chosen strategy and prices the winner with the CDCM simulator.
func Explore(strategy Strategy, mesh *topology.Mesh, cfg noc.Config, tech energy.Tech,
	g *model.CDCG, opts Options) (*ExploreResult, error) {

	if strategy == StrategyPareto && opts.Method != MethodSA {
		return nil, fmt.Errorf("core: the pareto strategy runs only method SA, not %s", opts.Method)
	}
	phase := func(name string) {
		if opts.OnPhase != nil {
			opts.OnPhase(name)
		}
	}
	phase("build")

	// The evaluators are stateful (CWM route cache + delta binding, CDCM
	// scratch), so the parallel engines receive a factory and build one
	// per worker lane; the serial engines call it once. For CDCM the
	// factory hands out clones of one shared evaluator: the simulator
	// core (route/port tables, dependence graph) is built and validated
	// once, each lane gets only its own scratch, and the lanes run
	// concurrently against the shared immutable core.
	var newObjective search.ObjectiveFactory
	var cdcmBase *CDCM
	var resBase *Resilience
	switch strategy {
	case StrategyCWM:
		newObjective = func() (search.Objective, error) {
			cwm, err := NewCWM(mesh, cfg, tech, g.ToCWG())
			if err != nil {
				return nil, err
			}
			cwm.Evals = opts.EvalCounter
			return cwm, nil
		}
	case StrategyCDCM, StrategyPareto, StrategyResilience:
		var err error
		// A non-empty fault set turns the resilience objective on:
		// StrategyResilience requires it, and StrategyPareto then explores
		// the resilience axes (intact energy × worst-fault latency) instead
		// of CDCM's. The empty-fault CDCM/Pareto paths are untouched.
		switch {
		case strategy == StrategyResilience || (strategy == StrategyPareto && !opts.Faults.Empty()):
			if opts.Faults.Empty() {
				return nil, fmt.Errorf("core: %s strategy needs a non-empty fault set (Options.Faults)", strategy)
			}
			if resBase, err = NewResilience(mesh, cfg, tech, g, opts.Faults); err != nil {
				return nil, err
			}
			cdcmBase = resBase.Intact()
			// Instrumenting the intact CDCM counts one increment per
			// resilience evaluation (clones share the counter); the
			// per-fault degraded runs ride along uncounted.
			cdcmBase.Evals = opts.EvalCounter
			newObjective = func() (search.Objective, error) { return resBase.Clone(), nil }
		default:
			if cdcmBase, err = NewCDCM(mesh, cfg, tech, g); err != nil {
				return nil, err
			}
			cdcmBase.Evals = opts.EvalCounter
			newObjective = func() (search.Objective, error) { return cdcmBase.Clone(), nil }

			// Plain CDCM runs certify on their own: SA, hill and tabu
			// price through CDCM.PriceBelow, whose bounds before the first
			// packet are tier A and the port-load bound (see
			// search.TieredObjective). Tier B — the calibrated
			// surrogate — attaches only on request to the Metropolis
			// engines that can exact-reprice their accepted moves.
			if opts.Surrogate && (strategy == StrategyPareto || opts.Method == MethodSA) {
				// Fitted once, before any lane exists: every worker lane
				// shares the same immutable fit, so the surrogate walk is
				// independent of the worker count.
				fit, err := fitSurrogate(mesh, cfg, tech, g, cdcmBase, opts.Seed, opts.SurrogateSamples)
				if err != nil {
					return nil, err
				}
				newObjective = func() (search.Objective, error) {
					surr, err := newCDCMSurrogate(mesh, cfg, tech, g, fit)
					if err != nil {
						return nil, err
					}
					return &search.TieredObjective{Exact: cdcmBase.Clone(), Surrogate: surr}, nil
				}
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown strategy %d", strategy)
	}

	if opts.SeedGreedy && opts.Initial == nil {
		seed, err := GreedyInitial(mesh, g)
		if err != nil {
			return nil, err
		}
		opts.Initial = seed
	}

	prob := search.Problem{Mesh: mesh, NumCores: g.NumCores()}
	serial := func() error {
		obj, err := newObjective()
		prob.Obj = obj
		return err
	}
	var (
		res   *search.Result
		front *search.FrontResult
		err   error
	)
	phase("search")
	switch {
	case strategy == StrategyPareto:
		// StrategyPareto is engine and strategy in one: the front engine
		// over the objective's vector components (an annealer: Explore
		// refused any other Method up front). The scalar Search result
		// summarises the front's lowest-collapse point so every consumer
		// of ExploreResult keeps working unchanged.
		if err = serial(); err != nil {
			break
		}
		front, err = (&search.ParetoSA{
			Problem:      prob,
			Seed:         opts.Seed,
			Initial:      opts.Initial,
			TempSteps:    opts.TempSteps,
			MovesPerTemp: opts.MovesPerTemp,
			Alpha:        opts.Alpha,
			StallSteps:   opts.StallSteps,
			Walks:        opts.Restarts,
			FrontSize:    opts.FrontSize,
			Workers:      opts.Workers,
			NewObjective: newObjective,
			Ctx:          opts.Ctx,
			OnProgress:   opts.OnProgress,
		}).Run()
		if err != nil {
			break
		}
		best, ok := front.Best()
		if !ok {
			err = fmt.Errorf("core: pareto exploration returned an empty front")
			break
		}
		res = &search.Result{
			Best:           best.Mapping,
			BestCost:       best.Cost,
			InitialCost:    front.InitialCost,
			Evaluations:    front.Evaluations,
			ExactEvals:     front.ExactEvals,
			SurrogateEvals: front.SurrogateEvals,
			Improvements:   front.Improvements,
		}
	case opts.Method == MethodSA:
		res, err = (&search.MultiAnnealer{
			Base: search.Annealer{
				Problem:      prob,
				Seed:         opts.Seed,
				Initial:      opts.Initial,
				TempSteps:    opts.TempSteps,
				MovesPerTemp: opts.MovesPerTemp,
				Alpha:        opts.Alpha,
				StallSteps:   opts.StallSteps,
				Reheats:      opts.Reheats,
				Ctx:          opts.Ctx,
				OnProgress:   opts.OnProgress,
			},
			Restarts:     opts.Restarts,
			Workers:      opts.Workers,
			NewObjective: newObjective,
		}).Run()
	case opts.Method == MethodES:
		res, err = (&search.ShardedExhaustive{
			Problem:      prob,
			Limit:        opts.ESLimit,
			Anchor:       opts.ESAnchor,
			Workers:      opts.Workers,
			NewObjective: newObjective,
			Ctx:          opts.Ctx,
			OnProgress:   opts.OnProgress,
		}).Run()
	case opts.Method == MethodRandom:
		if err = serial(); err == nil {
			res, err = (&search.RandomSearch{Problem: prob, Seed: opts.Seed, Samples: opts.Samples,
				Ctx: opts.Ctx, OnProgress: opts.OnProgress}).Run()
		}
	case opts.Method == MethodHill:
		if err = serial(); err == nil {
			res, err = (&search.HillClimber{Problem: prob, Seed: opts.Seed, Initial: opts.Initial,
				Ctx: opts.Ctx, OnProgress: opts.OnProgress}).Run()
		}
	case opts.Method == MethodTabu:
		if err = serial(); err == nil {
			res, err = (&search.Tabu{Problem: prob, Seed: opts.Seed,
				Ctx: opts.Ctx, OnProgress: opts.OnProgress}).Run()
		}
	default:
		err = fmt.Errorf("core: unknown method %d", opts.Method)
	}
	if err != nil {
		return nil, err
	}
	if opts.Ctx != nil {
		// The winner still has to be priced on the CDCM simulator below;
		// don't start that (potentially expensive) run for a caller that
		// has already walked away.
		if err := opts.Ctx.Err(); err != nil {
			return nil, err
		}
	}

	// Price the winner with the CDCM simulator. A CDCM-driven run already
	// built the shared simulator core; reuse it instead of recomputing
	// the route tables.
	phase("price")
	pricer := cdcmBase
	if pricer == nil {
		if pricer, err = NewCDCM(mesh, cfg, tech, g); err != nil {
			return nil, err
		}
	}
	metrics, err := pricer.Evaluate(res.Best)
	if err != nil {
		return nil, err
	}
	out := &ExploreResult{Strategy: strategy, Search: res, Best: res.Best, Metrics: metrics, Front: front}
	if err := attachResilience(out, resBase, mesh, cfg, tech, g, opts.Faults); err != nil {
		return nil, err
	}
	return out, nil
}

// attachResilience scores the winning mapping over the run's fault set
// (no-op when none was configured). Runs that already built a resilience
// evaluator reuse it; the CWM/CDCM strategies build one here just to
// score their winner.
func attachResilience(out *ExploreResult, resBase *Resilience, mesh *topology.Mesh, cfg noc.Config,
	tech energy.Tech, g *model.CDCG, fs *topology.FaultSet) error {
	if fs.Empty() {
		return nil
	}
	if resBase == nil {
		var err error
		if resBase, err = NewResilience(mesh, cfg, tech, g, fs); err != nil {
			return err
		}
	}
	sc, err := resBase.Score(out.Best)
	if err != nil {
		return err
	}
	out.Resilience = sc
	return nil
}

// CompareOptions tunes the Table-2 protocol.
type CompareOptions struct {
	// Options configures the (shared) search budget for both strategies.
	Options
	// OptimizeTech is the profile the CDCM objective minimises ENoC
	// under; the zero value defaults to Tech007 — the deep-submicron
	// point where timing matters most, and the regime the paper targets.
	OptimizeTech energy.Tech
	// ReportTechs are the profiles both winners are priced under (default
	// Tech035 and Tech007).
	ReportTechs []energy.Tech
}

// Comparison is the outcome of the CWM-vs-CDCM protocol on one workload.
type Comparison struct {
	// CWMMapping is the volume-only strategy's winner (tech independent:
	// equation (3) scales uniformly with the bit-energy constants).
	CWMMapping mapping.Mapping
	// CDCMMappings holds the CDCM winner per reporting tech (keyed by
	// Tech.Name): the CDCM objective depends on the technology through
	// the static/dynamic balance, so each technology is explored under
	// its own constants — "ECS values obtained from 0.35µ technology".
	CDCMMappings map[string]mapping.Mapping
	// CWMEvaluations/CDCMEvaluations count objective calls per strategy
	// (CDCM totals across techs and restarts).
	CWMEvaluations, CDCMEvaluations int64
	// CWMMetrics and CDCMMetrics price the winners per reporting tech.
	CWMMetrics, CDCMMetrics map[string]Metrics
	// ETR is the execution-time reduction (t_cwm − t_cdcm) / t_cwm,
	// measured on the OptimizeTech run (the deep-submicron point, where
	// the paper's argument lives).
	ETR float64
	// ECS is the energy-consumption saving per reporting tech:
	// (E_cwm − E_cdcm) / E_cwm, keyed by Tech.Name.
	ECS map[string]float64
}

// CompareModels runs the paper's comparison protocol on one workload.
//
// The shared search budget first explores the space under the CWM
// objective. Then, for every reporting technology, the CDCM objective
// (equation (10) under that technology's constants) is explored twice
// with the same budget — once from a random mapping like the paper, and
// once seeded with the CWM winner — keeping the better result. The
// restart only improves the optimisation of the CDCM objective; in
// particular it guarantees the reported ECS reflects what the dependence
// model can see, not annealing luck on large instances. Both winners are
// executed on the CDCM simulator and priced under the reporting
// technology. The CWM strategy cannot see time, so its winner's texec is
// whatever contention falls out of its volume-only placement — that gap
// is the paper's result.
//
// The protocol's legs are independent explorations, so with
// Options.Workers > 1 they run concurrently: the CWM exploration and
// every per-tech random-start CDCM run launch immediately, and the
// CWM-seeded refinements plus pricing follow once the CWM winner exists.
// Every leg is deterministic under its own seed, so the comparison is
// bit-identical for every Workers value.
func CompareModels(mesh *topology.Mesh, cfg noc.Config, g *model.CDCG, opts CompareOptions) (*Comparison, error) {
	optTech := opts.OptimizeTech
	if optTech == (energy.Tech{}) {
		optTech = energy.Tech007
	}
	report := opts.ReportTechs
	if len(report) == 0 {
		report = []energy.Tech{energy.Tech035, energy.Tech007}
	}
	hasOpt := false
	for _, t := range report {
		if t.Name == optTech.Name {
			hasOpt = true
		}
	}
	if !hasOpt {
		report = append(append([]energy.Tech{}, report...), optTech)
	}

	// Phase 1 — every leg that needs no other leg's output: the CWM
	// exploration (job 0) and one random-start CDCM exploration per
	// reporting tech (jobs 1..len(report)).
	var cwmRes *ExploreResult
	randRuns := make([]*ExploreResult, len(report))
	err := par.ForEachCtx(opts.Ctx, 1+len(report), opts.Workers, func(i int) error {
		if i == 0 {
			res, err := Explore(StrategyCWM, mesh, cfg, optTech, g, opts.Options)
			if err != nil {
				return fmt.Errorf("core: CWM exploration: %w", err)
			}
			cwmRes = res
			return nil
		}
		tech := report[i-1]
		res, err := Explore(StrategyCDCM, mesh, cfg, tech, g, opts.Options)
		if err != nil {
			return fmt.Errorf("core: CDCM exploration (%s): %w", tech.Name, err)
		}
		randRuns[i-1] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2 — per-tech legs downstream of the CWM winner: pricing the
	// CWM mapping under the reporting tech and the CWM-seeded CDCM
	// refinement.
	cwmMetrics := make([]Metrics, len(report))
	seedRuns := make([]*ExploreResult, len(report))
	err = par.ForEachCtx(opts.Ctx, 2*len(report), opts.Workers, func(i int) error {
		tech := report[i/2]
		if i%2 == 0 {
			pricer, err := NewCDCM(mesh, cfg, tech, g)
			if err != nil {
				return err
			}
			mw, err := pricer.Evaluate(cwmRes.Best)
			if err != nil {
				return err
			}
			cwmMetrics[i/2] = mw
			return nil
		}
		seeded := opts.Options
		seeded.Initial = cwmRes.Best
		res, err := Explore(StrategyCDCM, mesh, cfg, tech, g, seeded)
		if err != nil {
			return fmt.Errorf("core: CDCM refinement (%s): %w", tech.Name, err)
		}
		seedRuns[i/2] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	cmp := &Comparison{
		CWMMapping:     cwmRes.Best,
		CDCMMappings:   make(map[string]mapping.Mapping, len(report)),
		CWMEvaluations: cwmRes.Search.Evaluations,
		CWMMetrics:     make(map[string]Metrics, len(report)),
		CDCMMetrics:    make(map[string]Metrics, len(report)),
		ECS:            make(map[string]float64, len(report)),
	}
	for i, tech := range report {
		mw := cwmMetrics[i]
		cmp.CWMMetrics[tech.Name] = mw
		randRun, seedRun := randRuns[i], seedRuns[i]
		best := randRun
		if seedRun.Search.BestCost < randRun.Search.BestCost {
			best = seedRun
		}
		cmp.CDCMEvaluations += randRun.Search.Evaluations + seedRun.Search.Evaluations
		cmp.CDCMMappings[tech.Name] = best.Best
		cmp.CDCMMetrics[tech.Name] = best.Metrics
		if mw.Total() > 0 {
			cmp.ECS[tech.Name] = (mw.Total() - best.Metrics.Total()) / mw.Total()
		}
	}
	tw := cmp.CWMMetrics[optTech.Name].ExecCycles
	td := cmp.CDCMMetrics[optTech.Name].ExecCycles
	if tw > 0 {
		cmp.ETR = float64(tw-td) / float64(tw)
	}
	return cmp, nil
}
