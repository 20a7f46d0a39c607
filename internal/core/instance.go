package core

import (
	"fmt"
	"sync"

	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// The table and scratch builders, variables only so a test can count the
// builds.
var (
	newSimulator, newCWM = wormhole.NewSimulatorFaults, NewCWM
	newScratch           = (*wormhole.Simulator).NewScratch
)

// Instance is one mapping problem, built and validated once: the NoC, the
// CDCG, and the immutable tables every evaluator prices from (one
// wormhole simulator, the CWG's route-length table and, given faults,
// one simulator per failed element). None depends on the tech: evaluators
// of any tech are cheap lanes over them, and lanes may run concurrently.
type Instance struct {
	Mesh   *topology.Mesh
	Cfg    noc.Config
	G      *model.CDCG
	Faults *topology.FaultSet

	sim       *wormhole.Simulator
	cwmOnce   sync.Once
	cwm       *CWM // tech-free template of the CWM lanes
	faultSims []*wormhole.Simulator
	elems     []topology.FaultElement
}

// NewInstance validates the inputs and builds the instance's tables.
func NewInstance(mesh *topology.Mesh, cfg noc.Config, g *model.CDCG, fs *topology.FaultSet) (*Instance, error) {
	sim, err := newSimulator(mesh, cfg, g, nil)
	if err != nil {
		return nil, err
	}
	in := &Instance{Mesh: mesh, Cfg: cfg, G: g, Faults: fs, sim: sim, elems: fs.Elements()}
	in.faultSims = make([]*wormhole.Simulator, len(in.elems))
	for i, e := range in.elems {
		single, err := fs.Singleton(e)
		if err == nil {
			in.faultSims[i], err = newSimulator(mesh, cfg, g, single)
		}
		if err != nil {
			return nil, fmt.Errorf("core: fault scenario %s: %w", e, err)
		}
	}
	return in, nil
}

// CWM returns a fresh CWM lane priced under tech, which must be valid
// (energy.Tech.Validate): lanes are derived per worker and do not check.
// The first call builds the CWG and its tables, so a run that prices
// only CDCM never builds them.
func (in *Instance) CWM(tech energy.Tech) *CWM {
	in.cwmOnce.Do(func() {
		// Cannot fail: the simulator took this mesh and cfg, and a valid CDCG has a valid CWG.
		in.cwm, _ = newCWM(in.Mesh, in.Cfg, energy.Tech{}, in.G.ToCWG())
	})
	c := *in.cwm
	c.Tech = tech
	return &c
}

// CDCM returns a fresh CDCM lane over the intact simulator, priced under
// tech, which must be valid like CWM's.
func (in *Instance) CDCM(tech energy.Tech) *CDCM {
	return &CDCM{Tech: tech, sim: in.sim, sc: newScratch(in.sim)}
}

// GreedyInitial is the deterministic highest-traffic-first warm start:
// mapping.SeedGreedy over the CWG communication volumes.
func (in *Instance) GreedyInitial() (mapping.Mapping, error) {
	cwg := in.CWM(energy.Tech{}).G
	edges := make([]mapping.TrafficEdge, len(cwg.Edges))
	for i, e := range cwg.Edges {
		edges[i] = mapping.TrafficEdge{A: e.Src, B: e.Dst, Bits: e.Bits}
	}
	return mapping.SeedGreedy(in.Mesh, cwg.NumCores(), edges)
}
