package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/energy"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// instanceFaults fails one link and one router of mesh.
func instanceFaults(t *testing.T, mesh *topology.Mesh) *topology.FaultSet {
	t.Helper()
	fs := topology.NewFaultSet(mesh)
	if err := fs.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := fs.FailRouter(topology.TileID(mesh.NumTiles() - 1)); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestInstanceSharesOneCore: every lane an instance derives — CWM and
// CDCM for both techs and their clones, the surrogate's CWM lane and the
// resilience lanes — prices from the instance's one simulator (one per
// fault element for the fault lanes) and its one route-length table.
func TestInstanceSharesOneCore(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 7)
	in, err := NewInstance(mesh, noc.Default(), g, instanceFaults(t, mesh))
	if err != nil {
		t.Fatal(err)
	}
	if len(in.faultSims) != 2 {
		t.Fatalf("%d fault simulators, want one per element (2)", len(in.faultSims))
	}
	if in.cwm != nil {
		t.Fatal("NewInstance built the CWM tables before any CWM lane asked for them")
	}
	hops := &in.CWM(energy.Tech007).hops[0]
	for _, tech := range []energy.Tech{energy.Tech035, energy.Tech007} {
		cwm := in.CWM(tech)
		surr := &cdcmSurrogate{cwm: cwm}
		if &cwm.hops[0] != hops || &surr.cwm.hops[0] != hops || &cwm.adj[0] != &in.cwm.adj[0] {
			t.Errorf("%s: CWM lane has its own route-length table", tech.Name)
		}
		cdcm := in.CDCM(tech)
		res := in.Resilience(tech)
		for _, lane := range []*CDCM{cdcm, cdcm.Clone(), res.intact, res.Clone().intact} {
			if lane.sim != in.sim {
				t.Errorf("%s: CDCM lane has its own simulator", tech.Name)
			}
		}
		for _, r := range []*Resilience{res, res.Clone()} {
			for i, lane := range r.lanes {
				if lane.sim != in.faultSims[i] {
					t.Errorf("%s: fault lane %d has its own simulator", tech.Name, i)
				}
			}
		}
	}
}

// countBuilds counts the simulators and CWM tables built while run runs.
func countBuilds(t *testing.T, run func() error) (sims, cwms int64) {
	t.Helper()
	var ns, nc atomic.Int64
	sim, cwm := newSimulator, newCWM
	defer func() { newSimulator, newCWM = sim, cwm }()
	newSimulator = func(mesh *topology.Mesh, cfg noc.Config, g *model.CDCG, fs *topology.FaultSet) (*wormhole.Simulator, error) {
		ns.Add(1)
		return sim(mesh, cfg, g, fs)
	}
	newCWM = func(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech, g *model.CWG) (*CWM, error) {
		nc.Add(1)
		return cwm(mesh, cfg, tech, g)
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	return ns.Load(), nc.Load()
}

// TestExploreOneScratchPerLane: an exploration hands out its pricing
// bases as their own first lanes, so a serial resilience run on 3x3 with
// two fault elements makes four scratches (the winner's CDCM pricer and
// the resilience base's intact and two fault lanes) and a serial Pareto
// run one.
func TestExploreOneScratchPerLane(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 7)
	cfg := noc.Default()
	fs := instanceFaults(t, mesh)
	opts := Options{Method: MethodSA, Seed: 3, TempSteps: 4, MovesPerTemp: 6, Restarts: 1, Workers: 1}
	for _, tc := range []struct {
		strategy Strategy
		faults   *topology.FaultSet
		want     int64
	}{
		{StrategyResilience, fs, 4},
		{StrategyPareto, nil, 1},
		{StrategyPareto, fs, 4},
		{StrategyCDCM, nil, 1},
	} {
		in, err := NewInstance(mesh, cfg, g, tc.faults)
		if err != nil {
			t.Fatal(err)
		}
		var n atomic.Int64
		scratch := newScratch
		newScratch = func(s *wormhole.Simulator) *wormhole.Scratch {
			n.Add(1)
			return scratch(s)
		}
		_, err = in.Explore(tc.strategy, energy.Tech007, opts)
		newScratch = scratch
		if err != nil {
			t.Fatal(err)
		}
		if got := n.Load(); got != tc.want {
			t.Errorf("%s (faults %v): Explore made %d scratches, want %d", tc.strategy, tc.faults != nil, got, tc.want)
		}
	}
}

// TestCompareModelsBuildsOneInstance: a comparison builds one simulator
// and one CWM route-length table for all its concurrent legs and
// pricers, and an exploration builds one simulator plus one per fault
// element, and the CWM table only when a CWM lane needs it, whatever
// the worker count and tier.
func TestCompareModelsBuildsOneInstance(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 7)
	cfg := noc.Default()
	opts := Options{Method: MethodSA, Seed: 3, TempSteps: 4, MovesPerTemp: 6, Restarts: 2, Workers: 2}
	sims, cwms := countBuilds(t, func() error {
		_, err := CompareModels(mesh, cfg, g, CompareOptions{Options: opts})
		return err
	})
	if sims != 1 || cwms != 1 {
		t.Errorf("CompareModels built %d simulators and %d CWM tables, want 1 and 1", sims, cwms)
	}

	fs := instanceFaults(t, mesh)
	for _, tc := range []struct {
		strategy Strategy
		edit     func(o *Options)
		sims     int64
		cwms     int64
	}{
		{StrategyCWM, func(o *Options) {}, 1, 1},
		{StrategyCDCM, func(o *Options) {}, 1, 0},
		{StrategyCDCM, func(o *Options) { o.Surrogate = true }, 1, 1},
		{StrategyCDCM, func(o *Options) { o.Method, o.SeedGreedy = MethodHill, true }, 1, 1},
		{StrategyPareto, func(o *Options) {}, 1, 0},
		{StrategyCWM, func(o *Options) { o.Faults = fs }, 3, 1},
		{StrategyResilience, func(o *Options) { o.Faults = fs }, 3, 0},
	} {
		o := opts
		tc.edit(&o)
		sims, cwms := countBuilds(t, func() error {
			_, err := Explore(tc.strategy, mesh, cfg, energy.Tech007, g, o)
			return err
		})
		if sims != tc.sims || cwms != tc.cwms {
			t.Errorf("%s (faults %v): Explore built %d simulators and %d CWM tables, want %d and %d",
				tc.strategy, !o.Faults.Empty(), sims, cwms, tc.sims, tc.cwms)
		}
	}
}
