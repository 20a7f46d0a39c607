package core

import (
	"errors"
	"fmt"

	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/search"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// NewCDCMFaults is NewCDCM over a fault-aware simulator: the route table
// detours around the fault set's failed links/routers (see
// wormhole.NewSimulatorFaults). A nil or empty fault set is bit-identical
// to NewCDCM.
func NewCDCMFaults(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech,
	g *model.CDCG, fs *topology.FaultSet) (*CDCM, error) {
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	sim, err := wormhole.NewSimulatorFaults(mesh, cfg, g, fs)
	if err != nil {
		return nil, err
	}
	return newCDCMLane(tech, nil, sim), nil
}

// UnreachablePenaltyFactor prices a fault scenario that partitions a
// communicating pair of the mapping: the scenario's execution time is
// scored as this factor times the mapping's intact texec. The factor is
// deliberately heavy — an unreachable pair means the application cannot
// finish at all under that fault, so any mapping that keeps every pair
// reachable beats one that does not, while the penalty still scales with
// instance size so scores stay comparable across meshes.
const UnreachablePenaltyFactor = 10

var resilienceAxes = []string{"total_j", "worst_fault_cy"}

// Resilience is the fault-degradation objective: it prices a mapping by
// its intact ENoC plus the worst-case execution time over a set of
// single-fault scenarios, one scenario per failed element of the fault
// set (each failed link pair or router fails alone, the standard
// single-fault model). Scenario simulations run on fault-aware route
// tables precomputed at construction, so the per-candidate evaluation
// stays allocation-free in steady state like plain CDCM — it just runs
// 1+len(fault elements) simulations instead of one.
//
// Resilience implements search.Objective and search.VectorObjective with
// axes ["total_j", "worst_fault_cy"]: component 0 is the intact ENoC in
// joules, component 1 the worst scenario texec in cycles (penalised per
// UnreachablePenaltyFactor when a scenario partitions the mapping).
// The collapse weight of the latency axis is the NoC's static power per
// cycle in joules (Tech.StaticPower × clock period), so the scalar
//
//	Cost = ENoC_intact + P_static·t_worst
//
// reads as "intact energy plus the static energy burned by the worst
// degraded run" — one number that is jointly minimal for intact energy
// and worst-case-fault latency, and Cost equals CollapseWeights ·
// Components bit for bit like the other evaluators.
//
// Like CDCM, a Resilience is not safe for concurrent use; Clone hands
// each worker lane its own scratches over the shared simulator cores.
type Resilience struct {
	faults *topology.FaultSet

	intact *CDCM
	lanes  []*CDCM // one fault-aware evaluator per single-fault scenario
	elems  []topology.FaultElement

	weights []float64
	comps   []float64 // Cost's reusable component buffer
}

// NewResilience validates the inputs and builds the resilience evaluator:
// one intact CDCM plus one fault-aware CDCM per element of the fault set.
// The fault set must be non-empty — with no faults there is nothing to
// degrade; callers wanting the intact objective use NewCDCM.
func NewResilience(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech,
	g *model.CDCG, fs *topology.FaultSet) (*Resilience, error) {
	if fs.Empty() {
		return nil, errors.New("core: resilience objective needs a non-empty fault set")
	}
	intact, err := NewCDCM(mesh, cfg, tech, g)
	if err != nil {
		return nil, err
	}
	elems := fs.Elements()
	lanes := make([]*CDCM, len(elems))
	for i, e := range elems {
		single, err := fs.Singleton(e)
		if err != nil {
			return nil, err
		}
		if lanes[i], err = NewCDCMFaults(mesh, cfg, tech, g, single); err != nil {
			return nil, fmt.Errorf("core: fault scenario %s: %w", e, err)
		}
	}
	return &Resilience{
		faults:  fs,
		intact:  intact,
		lanes:   lanes,
		elems:   elems,
		weights: []float64{1, tech.StaticPower(mesh.NumTiles()) * cfg.CyclesToSeconds(1)},
		comps:   make([]float64, len(resilienceAxes)),
	}, nil
}

// Clone returns an independent evaluator lane: fresh scratches over the
// shared intact and per-scenario simulator cores. Clones may run
// concurrently with each other and with the original.
func (r *Resilience) Clone() *Resilience {
	lanes := make([]*CDCM, len(r.lanes))
	for i, l := range r.lanes {
		lanes[i] = l.Clone()
	}
	return &Resilience{
		faults:  r.faults,
		intact:  r.intact.Clone(),
		lanes:   lanes,
		elems:   r.elems,
		weights: r.weights,
		comps:   make([]float64, len(resilienceAxes)),
	}
}

// Intact exposes the intact CDCM evaluator (route tables without faults);
// Explore prices the winning mapping on it.
func (r *Resilience) Intact() *CDCM { return r.intact }

// Faults returns the fault set the evaluator scores against.
func (r *Resilience) Faults() *topology.FaultSet { return r.faults }

// Axes implements search.VectorObjective.
func (r *Resilience) Axes() []string { return resilienceAxes }

// CollapseWeights implements search.VectorObjective: weight 1 on intact
// ENoC, static-power-per-cycle on the worst-fault latency axis (see the
// type comment for why that makes the collapse a physical energy).
func (r *Resilience) CollapseWeights() []float64 { return r.weights }

// ComponentsInto implements search.VectorObjective: one intact simulation
// plus one per fault scenario, folded into (intact ENoC, worst scenario
// texec). A scenario that partitions the mapping contributes
// UnreachablePenaltyFactor × intact texec instead of a simulated time.
func (r *Resilience) ComponentsInto(mp mapping.Mapping, dst []float64) error {
	if len(dst) < len(resilienceAxes) {
		return fmt.Errorf("core: component buffer holds %d axes, resilience has %d", len(dst), len(resilienceAxes))
	}
	m0, err := r.intact.Evaluate(mp)
	if err != nil {
		return err
	}
	worst := m0.ExecCycles
	for _, lane := range r.lanes {
		m, err := lane.Evaluate(mp)
		if err != nil {
			if errors.Is(err, topology.ErrUnreachable) {
				if c := UnreachablePenaltyFactor * m0.ExecCycles; c > worst {
					worst = c
				}
				continue
			}
			return err
		}
		if m.ExecCycles > worst {
			worst = m.ExecCycles
		}
	}
	dst[0] = m0.Total()
	dst[1] = float64(worst)
	return nil
}

// Cost implements search.Objective as the weighted collapse of the
// component vector (identical code path, so the bit-identity between the
// scalar and vector views holds by construction).
func (r *Resilience) Cost(mp mapping.Mapping) (float64, error) {
	if err := r.ComponentsInto(mp, r.comps); err != nil {
		return 0, err
	}
	return search.Collapse(r.weights, r.comps), nil
}

// FaultImpact is the degradation one single-fault scenario inflicts on a
// mapping.
type FaultImpact struct {
	// Element names the failed element ("link 1-2", "router 5", "tsv 3-19").
	Element string
	// Unreachable reports that the fault partitions a communicating pair
	// of the mapping; ExecCycles then holds the documented penalty
	// (UnreachablePenaltyFactor × intact texec) and the energy is priced
	// as intact dynamic energy plus static energy over the penalty time.
	Unreachable bool
	// ExecCycles is the scenario's texec (or the penalty, see above).
	ExecCycles int64
	// TotalJ is the scenario's ENoC.
	TotalJ float64
	// DeltaCycles and DeltaJ are the degradations vs. the intact baseline
	// (never negative: a fault cannot be credited for beating the intact
	// run).
	DeltaCycles int64
	DeltaJ      float64
}

// ResilienceScore is the full degradation report of one mapping over a
// fault set — the per-fault breakdown the service and `nocexp -exp
// resilience` emit, modelled on chaos-duck's experiment ResilienceScore
// (overall 0-100 score plus per-scenario findings and recommendations).
type ResilienceScore struct {
	// FaultKey is the canonical fault-set string (topology.FaultSet.Key).
	FaultKey string
	// BaseExecCycles / BaseTotalJ price the intact mapping.
	BaseExecCycles int64
	BaseTotalJ     float64
	// Impacts holds one entry per fault element, in the fault set's
	// canonical enumeration order.
	Impacts []FaultImpact
	// WorstExecCycles is the worst scenario texec (the latency axis of the
	// resilience objective) and WorstElement the element inflicting it.
	WorstExecCycles int64
	WorstElement    string
	// MeanExecCycles / MeanDeltaJ average the scenario degradations.
	MeanExecCycles float64
	MeanDeltaJ     float64
	// WorstDeltaJ is the largest energy degradation.
	WorstDeltaJ float64
	// Unreachable counts scenarios that partition the mapping.
	Unreachable int
	// Score grades the mapping 0..100: 100 × intact texec / worst texec.
	// 100 means no fault slows the application; unreachable scenarios pull
	// the score down through the penalty time.
	Score float64
	// Recommendations are deterministic rule-based notes on the breakdown.
	Recommendations []string
}

// Score prices mp on the intact NoC and under every single-fault scenario
// and returns the full degradation report. Unlike Cost it allocates the
// report; it is meant for winners, not search loops.
func (r *Resilience) Score(mp mapping.Mapping) (*ResilienceScore, error) {
	m0, err := r.intact.Evaluate(mp)
	if err != nil {
		return nil, err
	}
	tech := r.intact.Tech
	cfg := r.intact.sim.Cfg
	n := r.intact.sim.Mesh.NumTiles()
	sc := &ResilienceScore{
		FaultKey:       r.faults.Key(),
		BaseExecCycles: m0.ExecCycles,
		BaseTotalJ:     m0.Total(),
		Impacts:        make([]FaultImpact, len(r.lanes)),
	}
	sc.WorstExecCycles = m0.ExecCycles
	var sumCy, sumDJ float64
	for i, lane := range r.lanes {
		imp := FaultImpact{Element: r.elems[i].String()}
		m, err := lane.Evaluate(mp)
		switch {
		case errors.Is(err, topology.ErrUnreachable):
			imp.Unreachable = true
			imp.ExecCycles = UnreachablePenaltyFactor * m0.ExecCycles
			imp.TotalJ = m0.Energy.Dynamic + tech.StaticEnergy(n, cfg.CyclesToSeconds(imp.ExecCycles))
			sc.Unreachable++
		case err != nil:
			return nil, fmt.Errorf("core: fault scenario %s: %w", r.elems[i], err)
		default:
			imp.ExecCycles = m.ExecCycles
			imp.TotalJ = m.Total()
		}
		if d := imp.ExecCycles - m0.ExecCycles; d > 0 {
			imp.DeltaCycles = d
		}
		if d := imp.TotalJ - sc.BaseTotalJ; d > 0 {
			imp.DeltaJ = d
		}
		if imp.ExecCycles > sc.WorstExecCycles {
			sc.WorstExecCycles = imp.ExecCycles
			sc.WorstElement = imp.Element
		}
		if imp.DeltaJ > sc.WorstDeltaJ {
			sc.WorstDeltaJ = imp.DeltaJ
		}
		sumCy += float64(imp.ExecCycles)
		sumDJ += imp.DeltaJ
		sc.Impacts[i] = imp
	}
	if len(r.lanes) > 0 {
		sc.MeanExecCycles = sumCy / float64(len(r.lanes))
		sc.MeanDeltaJ = sumDJ / float64(len(r.lanes))
	}
	sc.Score = 100
	if sc.WorstExecCycles > 0 {
		sc.Score = 100 * float64(m0.ExecCycles) / float64(sc.WorstExecCycles)
	}
	sc.Recommendations = recommend(sc)
	return sc, nil
}

// recommend derives deterministic rule-based notes from a score report.
func recommend(sc *ResilienceScore) []string {
	var out []string
	if sc.Unreachable > 0 {
		out = append(out, fmt.Sprintf(
			"%d fault scenario(s) partition the mapping; re-place the affected cores or use the resilience strategy",
			sc.Unreachable))
	}
	if sc.WorstElement != "" && sc.BaseExecCycles > 0 {
		degr := float64(sc.WorstExecCycles-sc.BaseExecCycles) / float64(sc.BaseExecCycles)
		if degr >= 0.25 {
			out = append(out, fmt.Sprintf(
				"single point of stress: %s degrades texec by %.0f%%; spread the traffic crossing it",
				sc.WorstElement, 100*degr))
		}
	}
	if len(out) == 0 {
		out = append(out, "mapping degrades gracefully under every injected fault")
	}
	return out
}
