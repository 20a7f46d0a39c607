package service

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
)

// ErrBadRequest wraps every request-validation failure; the HTTP layer
// maps it to 400.
var ErrBadRequest = errors.New("service: bad request")

func badRequest(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// Request is one mapping job as submitted to POST /v1/jobs. The zero
// value of every optional field selects the same default the nocmap CLI
// uses, and defaults are normalised before the cache key is computed, so
// an explicit `"model":"cdcm"` and an omitted model land on the same key.
type Request struct {
	// App is the CDCG to map (the same JSON schema cmd/nocgen emits).
	// Exactly one of App and Demo must be set.
	App *model.CDCG `json:"app,omitempty"`
	// Demo substitutes the paper's Figure-1 example application —
	// convenient for smoke tests.
	Demo bool `json:"demo,omitempty"`

	// Mesh is the grid spec "WxH" or "WxHxD"; empty auto-sizes the
	// smallest near-square grid fitting the cores (over Depth layers
	// when Depth is set).
	Mesh string `json:"mesh,omitempty"`
	// Topology is "mesh" (default) or "torus".
	Topology string `json:"topology,omitempty"`
	// Depth stacks a planar Mesh into this many layers.
	Depth int `json:"depth,omitempty"`
	// Routing is "xy" (default), "yx", "xyz", "zyx" or "fa"
	// (fault-aware: XY on intact pairs, turn-restricted detours around a
	// configured fault set).
	Routing string `json:"routing,omitempty"`
	// FlitBits is the link width in bits per flit (default 1).
	FlitBits int `json:"flit_bits,omitempty"`
	// Tech is "0.35um", "0.07um" (default) or "paper".
	Tech string `json:"tech,omitempty"`

	// Model is the mapping strategy: "cwm", "cdcm" (default), "pareto"
	// (multi-objective exploration over the CDCM components) or
	// "resilience" (fault-degradation objective; needs a fault set).
	Model string `json:"model,omitempty"`
	// Method is the search engine: "sa" (default), "es", "random",
	// "hill" or "tabu". The pareto model has exactly one engine (the
	// archived weight-swept annealer): it takes "sa" or no method, and any
	// other is a bad request.
	Method string `json:"method,omitempty"`
	// Seed drives every stochastic engine deterministically.
	Seed int64 `json:"seed,omitempty"`
	// Restarts runs SA as a deterministic multi-restart (default 1).
	Restarts int `json:"restarts,omitempty"`
	// Workers bounds the goroutines of one job's search. It is a pure
	// wall-clock lever — results are bit-identical for every value — and
	// is therefore the one knob excluded from the cache key. Default 1:
	// the daemon's cross-job pool is the concurrency source.
	Workers int `json:"workers,omitempty"`

	// Engine tuning, 0 = engine default; all of these shape results and
	// are part of the cache key.
	TempSteps    int     `json:"temp_steps,omitempty"`
	MovesPerTemp int     `json:"moves_per_temp,omitempty"`
	Alpha        float64 `json:"alpha,omitempty"`
	StallSteps   int     `json:"stall_steps,omitempty"`
	Reheats      int     `json:"reheats,omitempty"`
	Samples      int     `json:"samples,omitempty"`
	ESLimit      int64   `json:"es_limit,omitempty"`
	ESAnchor     bool    `json:"es_anchor,omitempty"`
	// FrontSize bounds the Pareto front of model "pareto" (0 = engine
	// default); ignored by the scalar models.
	FrontSize int `json:"front_size,omitempty"`
	// GreedySeed warm-starts the engine with the deterministic
	// highest-traffic-first constructive placement instead of a random
	// mapping (mapping.SeedGreedy).
	GreedySeed bool `json:"greedy_seed,omitempty"`

	// Surrogate enables the tier-B calibrated surrogate for the Metropolis
	// engines (model "cdcm" with method "sa", and the intact "pareto"
	// model): candidates are priced on an analytic predictor fitted
	// against exact simulations at build time, with every reported result
	// exact-repriced (core.Options.Surrogate). Deterministic under the
	// job's seed but not bit-identical to a surrogate-free run, so it is
	// part of the cache key. Ignored — bit for bit — by the engines that
	// cannot use it.
	Surrogate bool `json:"surrogate,omitempty"`
	// SurrogateSamples is the surrogate's calibration budget in exact
	// simulations (0 = core.DefaultSurrogateSamples); meaningful only
	// with Surrogate.
	SurrogateSamples int `json:"surrogate_samples,omitempty"`

	// FaultSet enumerates explicit failed NoC elements; FaultRate/
	// FaultSeed instead draw a deterministic random fault set
	// (topology.GenerateFaults — every bidirectional link pair fails with
	// probability FaultRate under FaultSeed). The two forms are mutually
	// exclusive. A non-empty resolved fault set makes every model attach a
	// resilience score for its winner, is required by model "resilience",
	// and switches model "pareto" to the resilience axes; the resolved
	// set's canonical form is part of the cache key. Omitting both is the
	// intact behaviour, bit for bit.
	FaultSet  *FaultSetJSON `json:"fault_set,omitempty"`
	FaultRate float64       `json:"fault_rate,omitempty"`
	FaultSeed int64         `json:"fault_seed,omitempty"`
}

// FaultSetJSON is the explicit fault enumeration of a request: failed
// bidirectional links and TSVs as [from, to] tile pairs, failed routers
// as tile IDs (all 0-based, the numbering of the result's mapping).
type FaultSetJSON struct {
	Links   [][2]int `json:"links,omitempty"`
	Routers []int    `json:"routers,omitempty"`
	TSVs    [][2]int `json:"tsvs,omitempty"`
}

// Instance is a fully resolved, validated Request: the form the daemon
// queues, keys its cache on, and executes. The nocmap CLI resolves its
// flags through the same type, which is what keeps CLI and daemon output
// schema-identical.
type Instance struct {
	G        *model.CDCG
	Mesh     *topology.Mesh
	Cfg      noc.Config
	Tech     energy.Tech
	Strategy core.Strategy
	Method   core.Method
	Opts     core.Options
}

// Resolve validates the request, fills in defaults and builds the
// runnable Instance. All failures wrap ErrBadRequest.
func (r *Request) Resolve() (*Instance, error) {
	g := r.App
	if r.Demo {
		if g != nil {
			return nil, badRequest("app and demo are mutually exclusive")
		}
		g = model.PaperExampleCDCG()
	}
	if g == nil {
		return nil, badRequest("missing app (or set demo)")
	}
	if err := g.Validate(); err != nil {
		return nil, badRequest("invalid app: %v", err)
	}

	topo := r.Topology
	if topo == "" {
		topo = "mesh"
	}
	mesh, err := ParseMesh(r.Mesh, topo, r.Depth, g.NumCores())
	if err != nil {
		return nil, badRequest("%v", err)
	}

	cfg := noc.Default()
	if r.FlitBits != 0 {
		cfg.FlitBits = r.FlitBits
	}
	routing := r.Routing
	if routing == "" {
		routing = "xy"
	}
	if cfg.Routing, err = topology.ParseRoutingAlgo(routing); err != nil {
		return nil, badRequest("%v", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, badRequest("%v", err)
	}

	techName := r.Tech
	if techName == "" {
		techName = "0.07um"
	}
	tech, err := ParseTech(techName)
	if err != nil {
		return nil, badRequest("%v", err)
	}

	modelName := r.Model
	if modelName == "" {
		modelName = "cdcm"
	}
	strategy, err := core.ParseStrategy(modelName)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	methodName := r.Method
	if methodName == "" {
		methodName = "sa"
	}
	method, err := core.ParseMethod(methodName)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if strategy == core.StrategyPareto && method != core.MethodSA {
		return nil, badRequest("model pareto runs only method sa, not %q", methodName)
	}

	restarts := r.Restarts
	if restarts == 0 {
		restarts = 1
	}
	if restarts < 0 {
		return nil, badRequest("negative restarts %d", restarts)
	}
	if r.Alpha < 0 || r.Alpha >= 1 {
		if r.Alpha != 0 {
			return nil, badRequest("alpha %g outside (0,1)", r.Alpha)
		}
	}
	if r.TempSteps < 0 || r.MovesPerTemp < 0 || r.StallSteps < 0 || r.Reheats < 0 ||
		r.Samples < 0 || r.ESLimit < 0 || r.FrontSize < 0 || r.SurrogateSamples < 0 {
		return nil, badRequest("negative engine tuning value")
	}

	var faults *topology.FaultSet
	switch {
	case r.FaultSet != nil && r.FaultRate != 0:
		return nil, badRequest("fault_set and fault_rate are mutually exclusive")
	case r.FaultSet != nil:
		faults = topology.NewFaultSet(mesh)
		for _, t := range r.FaultSet.Routers {
			if err := faults.FailRouter(topology.TileID(t)); err != nil {
				return nil, badRequest("fault_set: %v", err)
			}
		}
		for _, l := range r.FaultSet.Links {
			if err := faults.FailLink(topology.TileID(l[0]), topology.TileID(l[1])); err != nil {
				return nil, badRequest("fault_set: %v", err)
			}
		}
		for _, l := range r.FaultSet.TSVs {
			if err := faults.FailTSV(topology.TileID(l[0]), topology.TileID(l[1])); err != nil {
				return nil, badRequest("fault_set: %v", err)
			}
		}
	case r.FaultRate != 0:
		if faults, err = topology.GenerateFaults(mesh, r.FaultRate, r.FaultSeed); err != nil {
			return nil, badRequest("%v", err)
		}
	}
	// Each failed element costs a full route table when the instance is
	// built. Elements × tiles² is capped at MaxTiles², the work of one
	// intact table of the largest grid.
	if n, tiles := int64(faults.NumFailed()), int64(mesh.NumTiles()); n*tiles*tiles > MaxTiles*MaxTiles {
		return nil, badRequest("%d fault elements on %d tiles exceed the route-table limit (elements × tiles² ≤ %d)",
			n, tiles, MaxTiles*MaxTiles)
	}
	if strategy == core.StrategyResilience && faults.Empty() {
		return nil, badRequest("model resilience needs a non-empty fault set (fault_set, or fault_rate drawing at least one fault)")
	}

	return &Instance{
		G:        g,
		Mesh:     mesh,
		Cfg:      cfg,
		Tech:     tech,
		Strategy: strategy,
		Method:   method,
		Opts: core.Options{
			Method:           method,
			Seed:             r.Seed,
			TempSteps:        r.TempSteps,
			MovesPerTemp:     r.MovesPerTemp,
			Alpha:            r.Alpha,
			StallSteps:       r.StallSteps,
			Reheats:          r.Reheats,
			Samples:          r.Samples,
			ESLimit:          r.ESLimit,
			ESAnchor:         r.ESAnchor,
			FrontSize:        r.FrontSize,
			SeedGreedy:       r.GreedySeed,
			Restarts:         restarts,
			Workers:          r.Workers,
			Surrogate:        r.Surrogate,
			SurrogateSamples: r.SurrogateSamples,
			Faults:           faults,
		},
	}, nil
}

// GridSpec renders the instance's grid as the canonical "WxHxD" string.
func (in *Instance) GridSpec() string {
	return fmt.Sprintf("%dx%dx%d", in.Mesh.W(), in.Mesh.H(), in.Mesh.D())
}

// Key returns the canonical content hash identifying this instance's
// result: it covers the application graph (model.CDCG.Hash), the full
// topology and NoC configuration, the technology coefficients, and every
// search option that shapes the outcome. Workers is deliberately
// excluded — results are bit-identical across worker counts, so a
// 1-worker and an 8-worker submission of the same instance share one
// cache entry.
func (in *Instance) Key() string {
	h := sha256.New()
	io.WriteString(h, "nocd/job/v1\n")
	io.WriteString(h, "app:"+in.G.Hash()+"\n")
	fmt.Fprintf(h, "grid:%s:%s\n", in.GridSpec(), in.Mesh.Kind())
	// Router buffers are always unbounded; the line still spells that
	// out, so keys stay byte-identical to those of cached results priced
	// when the buffer depth was configurable.
	fmt.Fprintf(h, "noc:flit=%d tr=%d tl=%d tsv=%d clock=%g routing=%s buffers=unbounded bufflits=0 arb=%t\n",
		in.Cfg.FlitBits, in.Cfg.RoutingCycles, in.Cfg.LinkCycles, in.Cfg.TSVLinkCycles,
		in.Cfg.ClockNS, in.Cfg.Routing, in.Cfg.ArbitrateLocal)
	fmt.Fprintf(h, "tech:%s er=%g el=%g ec=%g etsv=%g ps=%g\n",
		in.Tech.Name, in.Tech.ERbit, in.Tech.ELbit, in.Tech.ECbit, in.Tech.ETSVbit, in.Tech.PSRouter)
	o := in.Opts
	fmt.Fprintf(h, "search:model=%s method=%s seed=%d restarts=%d temps=%d moves=%d alpha=%g stall=%d reheats=%d samples=%d eslimit=%d esanchor=%t front=%d greedy=%t\n",
		in.Strategy, in.Method, o.Seed, o.Restarts, o.TempSteps, o.MovesPerTemp,
		o.Alpha, o.StallSteps, o.Reheats, o.Samples, o.ESLimit, o.ESAnchor,
		o.FrontSize, o.SeedGreedy)
	// Tier-B surrogate runs hash an extra line only when the flag is set:
	// a surrogate walk is deterministic but not bit-identical to the
	// surrogate-free walk, so the two must never share a cache entry —
	// while every surrogate-free submission keeps its pre-two-tier key.
	if o.Surrogate {
		samples := o.SurrogateSamples
		if samples == 0 {
			samples = core.DefaultSurrogateSamples
		}
		fmt.Fprintf(h, "surrogate:samples=%d\n", samples)
	}
	// The resolved fault set, in canonical element form: fault_set and
	// fault_rate submissions resolving to the same failed elements share a
	// cache entry, and an empty set hashes exactly like the pre-fault
	// schema so existing keys are unchanged.
	if !o.Faults.Empty() {
		fmt.Fprintf(h, "faults:%s\n", o.Faults.Key())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ParseTech resolves a technology profile by CLI/API name.
func ParseTech(name string) (energy.Tech, error) {
	switch name {
	case "0.35um":
		return energy.Tech035, nil
	case "0.07um":
		return energy.Tech007, nil
	case "paper":
		return energy.PaperExample(), nil
	}
	return energy.Tech{}, fmt.Errorf("unknown tech %q (want 0.35um, 0.07um or paper)", name)
}

// MaxTiles caps the grid ParseMesh accepts: the evaluators' tables grow
// with the square of the tile count, and running out of memory is a
// crash no recover catches. 1,024 is 8.5 times the 12x10 Table-1 grid.
const MaxTiles = 1024

// ParseMesh parses "WxH" or "WxHxD" (optionally stacked deeper by depth
// and wrapped into a torus), or picks the smallest grid fitting the cores
// when spec is empty: near-square layers, spread over depth layers when
// given, so 16 cores at depth 4 auto-size to 2x2x4 rather than a 4x4
// layer replicated 4 times. A grid of more than MaxTiles tiles is refused
// before it is allocated. Shared by the nocmap CLI and the daemon so
// both resolve grid specs identically.
func ParseMesh(spec, topo string, depth, cores int) (*topology.Mesh, error) {
	if depth > MaxTiles {
		return nil, fmt.Errorf("depth %d exceeds the %d-tile limit", depth, MaxTiles)
	}
	torus := false
	switch topo {
	case "", "mesh":
	case "torus":
		torus = true
	default:
		return nil, fmt.Errorf("unknown topology %q (want mesh or torus)", topo)
	}
	var w, h, d int
	if spec == "" {
		d = 1
		if depth > 0 {
			d = depth
		}
		perLayer := (cores + d - 1) / d
		w = 1
		for w*w < perLayer {
			w++
		}
		h = w
		for (h-1)*w >= perLayer {
			h--
		}
	} else {
		var err error
		if w, h, d, err = topology.ParseGridSpec(spec); err != nil {
			return nil, err
		}
		if depth > 0 {
			if d > 1 && depth != d {
				return nil, fmt.Errorf("depth %d conflicts with mesh spec %q", depth, spec)
			}
			d = depth
		}
	}
	// Each factor is checked alone first, so the product cannot overflow.
	if w > MaxTiles || h > MaxTiles || d > MaxTiles || w*h*d > MaxTiles {
		return nil, fmt.Errorf("grid %dx%dx%d exceeds the %d-tile limit", w, h, d, MaxTiles)
	}
	var mesh *topology.Mesh
	var err error
	if torus {
		mesh, err = topology.NewTorus3D(w, h, d)
	} else {
		mesh, err = topology.NewMesh3D(w, h, d)
	}
	if err != nil {
		return nil, err
	}
	if cores > mesh.NumTiles() {
		return nil, fmt.Errorf("%d cores do not fit on %d tiles (%s)", cores, mesh.NumTiles(), spec)
	}
	return mesh, nil
}
