package core

import (
	"context"
	"fmt"
	"slices"

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

// Explore searches the mapping space of application g on the given NoC
// under the chosen strategy and prices the winner with the CDCM simulator:
// NewInstance over opts.Faults, then the search on it.
func Explore(strategy Strategy, mesh *topology.Mesh, cfg noc.Config, tech energy.Tech,
	g *model.CDCG, opts Options) (*ExploreResult, error) {
	if err := begin(strategy, tech, opts); err != nil {
		return nil, err
	}
	in, err := NewInstance(mesh, cfg, g, opts.Faults)
	if err != nil {
		return nil, err
	}
	return in.explore(strategy, tech, opts)
}

// Explore is the package-level Explore on the instance's tables.
// opts.Faults must be nil or the instance's fault set.
func (in *Instance) Explore(strategy Strategy, tech energy.Tech, opts Options) (*ExploreResult, error) {
	if opts.Faults != nil && opts.Faults != in.Faults {
		return nil, fmt.Errorf("core: Options.Faults is not the instance's fault set")
	}
	if err := begin(strategy, tech, opts); err != nil {
		return nil, err
	}
	return in.explore(strategy, tech, opts)
}

// begin refuses an unusable run before anything is built, then opens the build phase.
func begin(strategy Strategy, tech energy.Tech, opts Options) error {
	if strategy == StrategyPareto && opts.Method != MethodSA {
		return fmt.Errorf("core: the pareto strategy runs only method SA, not %s", opts.Method)
	}
	if err := tech.Validate(); err != nil {
		return err
	}
	opts.phase("build")
	return nil
}

// phase announces an exploration phase to OnPhase, when set.
func (o Options) phase(name string) {
	if o.OnPhase != nil {
		o.OnPhase(name)
	}
}

func (in *Instance) explore(strategy Strategy, tech energy.Tech, opts Options) (*ExploreResult, error) {
	// The evaluators are stateful (CWM delta binding, CDCM scratch), so
	// the parallel engines get a factory and derive one lane per worker
	// from the instance; the serial engines call it once. cdcmBase prices
	// the winner and is the template the CDCM search lanes clone, resBase
	// scores it and is the template of the resilience lanes. Each base is
	// its own first lane, which is safe because every engine calls the
	// factory on the calling goroutine and the winner is priced only after
	// every lane has returned.
	cdcmBase := in.CDCM(tech)
	cdcmLane := firstThenClones(cdcmBase, cdcmBase.Clone)
	var newObjective search.ObjectiveFactory
	var resBase *Resilience
	var err error
	switch strategy {
	case StrategyCWM:
		newObjective = func() (search.Objective, error) {
			cwm := in.CWM(tech)
			cwm.Evals = opts.EvalCounter
			return cwm, nil
		}
	case StrategyCDCM, StrategyPareto, StrategyResilience:
		cdcmBase.Evals = opts.EvalCounter
		// A non-empty fault set turns the resilience objective on:
		// StrategyResilience requires it, and StrategyPareto then explores
		// the resilience axes (intact energy × worst-fault latency) instead
		// of CDCM's. The empty-fault CDCM/Pareto paths are untouched.
		switch {
		case strategy == StrategyResilience || (strategy == StrategyPareto && !in.Faults.Empty()):
			if resBase = in.Resilience(tech); resBase == nil {
				return nil, fmt.Errorf("core: %s strategy needs a non-empty fault set (Options.Faults)", strategy)
			}
			// Instrumenting the intact CDCM counts one increment per
			// resilience evaluation (clones share the counter); the
			// per-fault degraded runs ride along uncounted.
			resBase.intact.Evals = opts.EvalCounter
			resLane := firstThenClones(resBase, resBase.Clone)
			newObjective = func() (search.Objective, error) { return resLane(), nil }
		default:
			newObjective = func() (search.Objective, error) { return cdcmLane(), nil }

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
				fit, err := fitSurrogate(in.CWM(tech), cdcmBase, opts.Seed, opts.SurrogateSamples)
				if err != nil {
					return nil, err
				}
				newObjective = func() (search.Objective, error) {
					return &search.TieredObjective{Exact: cdcmLane(), Surrogate: &cdcmSurrogate{cwm: in.CWM(tech), fit: fit}}, nil
				}
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown strategy %d", strategy)
	}

	if opts.SeedGreedy && opts.Initial == nil {
		seed, err := in.GreedyInitial()
		if err != nil {
			return nil, err
		}
		opts.Initial = seed
	}

	prob := search.Problem{Mesh: in.Mesh, NumCores: in.G.NumCores()}
	serial := func() error {
		obj, err := newObjective()
		prob.Obj = obj
		return err
	}
	var (
		res   *search.Result
		front *search.FrontResult
	)
	opts.phase("search")
	switch {
	case strategy == StrategyPareto:
		// StrategyPareto is engine and strategy in one: the front engine
		// over the objective's vector components (an annealer: Explore
		// refused any other Method up front). The scalar Search result
		// summarises the front's lowest-collapse point so every consumer
		// of ExploreResult keeps working unchanged. ParetoSA reads
		// Problem.Obj only for its axes and collapse weights, so the
		// base stands there without taking a lane.
		prob.Obj = cdcmBase
		if resBase != nil {
			prob.Obj = resBase
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

	// Price the winner with the CDCM simulator, and score it over the
	// fault set when there is one.
	opts.phase("price")
	metrics, err := cdcmBase.Evaluate(res.Best)
	if err != nil {
		return nil, err
	}
	out := &ExploreResult{Strategy: strategy, Search: res, Best: res.Best, Metrics: metrics, Front: front}
	if resBase == nil {
		resBase = in.Resilience(tech)
	}
	if resBase != nil {
		if out.Resilience, err = resBase.Score(out.Best); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// firstThenClones returns a lane factory that hands out base itself
// first and a fresh clone on every later call.
func firstThenClones[T any](base T, clone func() T) func() T {
	used := false
	return func() T {
		if !used {
			used = true
			return base
		}
		return clone()
	}
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
// CWM-seeded refinements follow once the CWM winner exists.
// Every leg is deterministic under its own seed, so the comparison is
// bit-identical for every Workers value. All legs and both pricers of
// the CWM winner derive their evaluators from one Instance.
func CompareModels(mesh *topology.Mesh, cfg noc.Config, g *model.CDCG, opts CompareOptions) (*Comparison, error) {
	in, err := NewInstance(mesh, cfg, g, opts.Faults)
	if err != nil {
		return nil, err
	}
	optTech := opts.OptimizeTech
	if optTech == (energy.Tech{}) {
		optTech = energy.Tech007
	}
	report := opts.ReportTechs
	if len(report) == 0 {
		report = []energy.Tech{energy.Tech035, energy.Tech007}
	}
	if !slices.ContainsFunc(report, func(t energy.Tech) bool { return t.Name == optTech.Name }) {
		report = append(append([]energy.Tech{}, report...), optTech)
	}

	// Phase 1 — every leg that needs no other leg's output: the CWM
	// exploration (job 0) and one random-start CDCM exploration per
	// reporting tech (jobs 1..len(report)).
	var cwmRes *ExploreResult
	randRuns := make([]*ExploreResult, len(report))
	err = par.ForEachCtx(opts.Ctx, 1+len(report), opts.Workers, func(i int) error {
		if i == 0 {
			res, err := in.Explore(StrategyCWM, optTech, opts.Options)
			if err != nil {
				return fmt.Errorf("core: CWM exploration: %w", err)
			}
			cwmRes = res
			return nil
		}
		tech := report[i-1]
		res, err := in.Explore(StrategyCDCM, tech, opts.Options)
		if err != nil {
			return fmt.Errorf("core: CDCM exploration (%s): %w", tech.Name, err)
		}
		randRuns[i-1] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2 — the CWM-seeded CDCM refinement per reporting tech.
	seedRuns := make([]*ExploreResult, len(report))
	err = par.ForEachCtx(opts.Ctx, len(report), opts.Workers, func(i int) error {
		seeded := opts.Options
		seeded.Initial = cwmRes.Best
		res, err := in.Explore(StrategyCDCM, report[i], seeded)
		if err != nil {
			return fmt.Errorf("core: CDCM refinement (%s): %w", report[i].Name, err)
		}
		seedRuns[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CWM winner's run does not depend on the tech: simulate it once
	// and price it under every reporting tech.
	pricer := in.CDCM(optTech)
	raw, err := in.sim.RunScratch(cwmRes.Best, pricer.sc)
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
		pricer.Tech = tech
		mw := pricer.metrics(raw)
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
