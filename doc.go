// Package repro reproduces "Exploring NoC Mapping Strategies: An Energy
// and Timing Aware Technique" (Marcon, Calazans, Moraes, Susin, Reis,
// Hessel — DATE 2005) as a production-quality Go library.
//
// The library implements the paper's FRW mapping-exploration framework:
// the CWM (communication weighted) and CDCM (communication dependence and
// computation) application models, a contention-aware wormhole NoC timing
// simulator, the dynamic+static energy model, simulated-annealing and
// exhaustive mapping search, the TGFF-like benchmark generator and the
// four embedded applications of the evaluation, plus the harness that
// regenerates every table and figure of the paper.
//
// Exploration is parallel end to end: simulated annealing runs as a
// deterministic multi-restart (search.MultiAnnealer), exhaustive search
// shards its enumeration space by the first core's tile
// (search.ShardedExhaustive), the Table-2 comparison protocol
// (core.CompareModels) runs its independent legs concurrently, and the
// experiment harness batches workloads over the worker pool in
// internal/par. Worker count is a pure wall-clock lever: for a fixed
// seed, results are bit-identical for every Workers value.
//
// The search hot path is fast in two model-specific ways. CWM implements
// search.DeltaObjective (Reset / SwapDelta / Commit), pricing a proposed
// tile swap in O(deg) over per-core adjacency lists instead of re-walking
// all |E| edges. Because EDyNoC is linear in the integer traffic
// aggregate Σ w·K, the incremental path is bit-identical to full
// recomputes — the annealer, hill climber and tabu search take it
// automatically and return the same Best mapping either way, ~5.6x
// faster per evaluation on an 8x8/16-core instance and further ahead as
// instances grow (see README "Incremental (delta) evaluation"). CDCM
// keeps the full simulator path — contention is global, so no cheap swap
// delta exists — but that simulation is allocation-free in steady state:
// wormhole.Simulator precomputes the full route table and dense
// port/link adjacency tables once and is immutable afterwards, while all
// mutable run state (busy lists, event heap, reusable Result backing)
// lives in a per-lane wormhole.Scratch. A run builds its tables once, in
// a core.Instance, whose CWM/CDCM/Resilience lanes give each worker, tech
// and CompareModels leg its own state over them, so parallel searches
// scale with Workers and stay bit-identical to the serial path.
// Per-resource occupancy recording is opt-in (Scratch.RecordOccupancy)
// and only enabled by the trace/Gantt renderers, through CDCM.Simulate
// (see README "Allocation-free CDCM evaluation").
//
// On top of the simulator sits two-tier CDCM evaluation
// (search.TieredObjective). Tier A is a certified lower bound and has
// one implementation: the first bound CDCM.PriceBelow offers, the
// simulator's uncontended critical path priced as ENoC (exact dynamic
// energy plus static energy over that path), which is provably ≤ the
// simulated contended cost. When tier A is declined, PriceBelow offers a
// second bound before any packet, the port-load bound, when it is
// larger: an arbitrated output port serves its packets one closed
// interval at a time, so texec is at least the sum over its packets of
// min(hold+1, remaining path), and the bound is the largest such sum.
// The scratch updates the per-port sums incrementally, re-adding only
// the packets of the cores a swap moved. It is offered on graphs of 40
// cores or more, where a swap moves at most a tenth of the packets: on
// the large rows, where texec is mostly one port's queue, it certifies
// most rejections that tier A cannot, while on small graphs the update
// costs more than the simulation time it saves. Where it is offered, a
// third bound follows when it is larger still: the heads-and-tails bound
// of the most loaded port, the preemptive Jackson schedule of its
// packets, each released at its uncontended earliest arrival there and
// followed by its uncontended remaining path. Every bound comes before
// the first packet: a candidate is either skipped there or simulated in
// full. The tier is chosen once per walk, where the walk is bound: the
// search incumbent prices SA's, hill's and tabu's candidates on the exact
// tier's incremental delta when it has one, else (SA only) on the tier-B
// surrogate, else in full, certified whenever the exact tier is a
// search.CutoffObjective. The strict-improvement engines (hill climber, tabu)
// skip a swap whose bound already fails the scan's threshold. Exact-priced
// SA skips a move once its Metropolis rejection is certain: lb > cost
// proves d > 0, so the uniform u is drawn before the move is priced, and
// exp(−(lb−cost)/T)·(1+1e-9) < u implies u ≥ exp(−d/T) because float
// subtraction, division by T > 0 and (up to the slack) exp are
// monotone. Tier A is on for every
// plain CDCM hill, tabu and SA run (SA only without tier B), is
// bit-identical by construction, and prices a candidate without
// allocating (//nocvet:noalloc). Tier B
// is an opt-in calibrated surrogate (core.Options.Surrogate, default
// off) for SA and ParetoSA: an analytic predictor least-squares-fitted
// per instance against a deterministic, seed-keyed sample of exact
// simulations, used to rank Metropolis candidates so only accepted
// moves — and the final Best and every Pareto front point — are priced
// on the simulator. The determinism contract extends to both tiers:
// tier A never changes Best, BestCost or the accept/reject trajectory
// (pinned bitwise against uncertified engines), and tier B fits its
// surrogate once before workers fan out, so results remain
// bit-identical for every Workers value and every reported number is
// an exact simulator price, never a surrogate estimate. Search results
// split Evaluations into ExactEvals + BoundSkips + SurrogateEvals
// (the sum invariant holds in every Result, progress snapshot and
// telemetry block). See README "Two-tier CDCM evaluation".
//
// The scalar cost the paper optimises is one point of a trade-off curve,
// and the framework can report the whole curve: both evaluators implement
// search.VectorObjective, exposing named component axes (CWM: dynamic
// energy and an uncontended hop-latency aggregate; CDCM: dynamic energy,
// static energy and simulated texec) whose weighted collapse equals the
// scalar Cost bit for bit — so every scalar engine, golden and delta
// path is untouched by the vector seam. search.ParetoSA approximates the
// energy×latency Pareto front with archived weight-swept annealing walks
// over a dominance archive with crowding-based pruning; fronts are
// deterministic for a fixed seed whatever the worker count, every front
// point exact-reprices on a fresh evaluator, and the front flows through
// core.Explore (core.StrategyPareto), the service schema, `nocmap -model
// pareto` and `nocexp -exp pareto`. mapping.SeedGreedy provides a
// deterministic highest-traffic-first constructive placement that can
// warm-start any seeded engine (core.Options.SeedGreedy); a seeded run
// never finishes worse than its seed. See README "Multi-objective
// search".
//
// The framework also runs as a long-lived service: internal/service plus
// cmd/nocd expose submission, status, cancellation and progress streaming
// over HTTP/JSON, with a bounded job queue on the internal/par pool and
// an LRU result cache keyed by a canonical instance hash
// (model.CDCG.Hash + service.Instance.Key). Every search engine accepts
// an optional context.Context and progress callback; the nil-context
// path is bit-identical to the batch behaviour, so CLI runs, tests and
// daemon jobs share one search code path. Results are deterministic
// under a fixed seed and the service result schema carries no wall-clock
// state, which makes cached, deduplicated and freshly computed responses
// byte-identical — the invariant the cache is built on.
//
// Topologies cover planar and stacked grids: W×H meshes and tori are the
// D=1 case of W×H×D (topology.NewMesh3D / NewTorus3D), with vertical
// through-silicon-via (TSV) links between layers, dimension-ordered
// XY/YX/XYZ/ZYX routing, a TSV per-bit energy coefficient
// (energy.Tech.ETSVbit) and a TSV per-flit latency
// (noc.Config.TSVLinkCycles). Depth-1 grids are bit-identical to the
// original 2-D model end to end; the K-symmetry invariant the delta
// evaluator needs holds across the whole family, so incremental
// evaluation stays exact on 3-D instances. The dim3 experiment
// (internal/exp, `nocexp -exp dim3`) compares the same application on a
// planar grid and an equal-tile-count 3-D stack.
//
// Faults are first-class: topology.FaultSet marks failed links, routers
// and TSVs over any grid (enumerated explicitly or drawn by
// topology.GenerateFaults from a rate and seed), and
// topology.RouteFault computes fault-aware routes — the dimension-ordered
// route when it is clean, else a deadlock-safe negative-first detour,
// else an unrestricted escape path, else topology.ErrUnreachable. The
// fault-aware contract is deterministic end to end: routes depend only
// on (grid, fault set, algorithm) — never on map order, timing or worker
// count — wormhole.NewSimulatorFaults precomputes them into the same
// flattened route table the intact simulator uses (a nil fault set is
// bit-identical to NewSimulator, pinned by test), and the
// core.Resilience objective prices a mapping as intact energy plus its
// worst-case texec over single-fault scenarios, with unreachable
// scenarios charged a documented penalty
// (core.UnreachablePenaltyFactor × intact texec) instead of failing the
// search. core.Explore scores any strategy's winner over the run's
// fault set (core.ExploreResult.Resilience) and
// core.StrategyResilience optimises for it; the report flows through
// the service schema, `nocmap -model resilience -faultrate` and
// `nocexp -exp resilience`. See README "Fault injection and resilience".
//
// Layout:
//
//	internal/graph      DAG utilities
//	internal/model      CWG and CDCG application models (Definitions 1-2)
//	internal/topology   2-D/3-D mesh/torus topology and dimension-ordered
//	                    XY/YX/XYZ/ZYX routing (Definition 3 + TSV extension)
//	internal/noc        NoC architecture configuration (tr, tl, λ, flits)
//	internal/wormhole   timed, contention-aware wormhole simulator
//	internal/energy     bit-energy model and technology profiles (eqs. 1-10)
//	internal/mapping    core→tile placements, moves, enumeration
//	internal/par        deterministic bounded worker pool (batch + daemon Pool)
//	internal/search     SA / exhaustive / hill / random / tabu / Pareto
//	                    engines on three kernels (Metropolis walk, swap
//	                    scan, enumeration loop), parallel multi-restart
//	                    and sharded enumeration, context cancellation
//	                    and progress callbacks
//	internal/core       the FRW framework: CWM & CDCM strategies (the contribution)
//	internal/service    mapping-as-a-service: job queue, instance cache, HTTP API
//	internal/appgen     TGFF-like CDCG benchmark generator
//	internal/apps       Romberg, FFT-8, object recognition, image encoder
//	internal/trace      timing diagrams and annotated-CRG rendering
//	internal/exp        regeneration of every table and figure
//	internal/analysis   project-specific static analyzers (the nocvet suite)
//	cmd/nocmap          map one application onto a NoC
//	cmd/nocgen          generate benchmark CDCGs
//	cmd/nocexp          reproduce the paper's tables and figures
//	cmd/nocd            the mapping daemon (HTTP/JSON API over internal/service)
//	cmd/nocvet          run the static-analysis suite (blocking in CI)
//	examples/...        runnable walk-throughs
//
// The invariants above — bit-identical results for every worker count,
// allocation-free steady-state hot paths, cancellation through every
// engine, unlock-before-send in the service layer — are enforced
// statically as well as by tests: the nocvet suite (internal/analysis,
// run via `go run ./cmd/nocvet ./...` or `make lint`) rejects code that
// leaks map iteration order into results, reads nondeterministic inputs
// inside engine packages, allocates inside //nocvet:noalloc functions,
// drops the context on a fan-out, or blocks while holding a service
// mutex. See internal/analysis/doc.go for the contract and the
// annotation grammar.
//
// See README.md for a tour. The benchmarks in bench_test.go regenerate
// each table and figure under `go test -bench`, and the Workers1/WorkersN
// benchmark pairs measure the parallel runner's wall-clock win.
package repro
