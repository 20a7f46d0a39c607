package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// The layer probes time single calls into the lowest layers on the two
// committed ledger instances (the paper's Figure-3 example and the
// 99-core tgff-12x10 row) plus one small Table-1 row, reporting ns/op,
// B/op and allocs/op like `go test -benchmem`.

// probeTime is the minimum time one probe measures.
const probeTime = 150 * time.Millisecond

// probeResult is one probe's per-call cost.
type probeResult struct{ nsOp, bOp, allocsOp float64 }

// measure calls op in growing batches until the batch takes at least d,
// then reports the last batch's per-call time and allocations.
func measure(d time.Duration, op func() error) (probeResult, error) {
	for n := 1; ; n *= 2 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return probeResult{}, err
			}
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&after)
		if el >= d {
			k := float64(n)
			return probeResult{
				nsOp:     float64(el.Nanoseconds()) / k,
				bOp:      float64(after.TotalAlloc-before.TotalAlloc) / k,
				allocsOp: float64(after.Mallocs-before.Mallocs) / k,
			}, nil
		}
	}
}

// probeInstance is one instance the probes run on.
type probeInstance struct {
	name string
	mesh *topology.Mesh
	cfg  noc.Config
	tech energy.Tech
	g    *model.CDCG
}

func probeInstances() ([]probeInstance, error) {
	fig3, err := topology.NewMesh(2, 2)
	if err != nil {
		return nil, err
	}
	insts := []probeInstance{{"fig3", fig3, noc.PaperExample(), energy.PaperExample(), model.PaperExampleCDCG()}}
	rows, err := table1Rows()
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		switch r.Name {
		case "tgff-12x10":
			insts = append(insts, probeInstance{"12x10", r.mesh, noc.Default(), energy.Tech007, r.G})
		case "tgff-3x3-b":
			insts = append(insts, probeInstance{"small", r.mesh, noc.Default(), energy.Tech007, r.G})
		}
	}
	if len(insts) != 3 {
		return nil, fmt.Errorf("probe rows missing from the Table-1 suite")
	}
	return insts, nil
}

// probeMapping is a fixed random placement of g on mesh.
func probeMapping(mesh *topology.Mesh, g *model.CDCG) (mapping.Mapping, error) {
	return mapping.Random(rand.New(rand.NewSource(1)), g.NumCores(), mesh.NumTiles())
}

// probeCDCMCost measures core.CDCM.Cost on mapping mp after a warm-up
// call has grown the evaluator's scratch.
func probeCDCMCost(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech, g *model.CDCG,
	mp mapping.Mapping, d time.Duration) (probeResult, error) {
	c, err := core.NewCDCM(mesh, cfg, tech, g)
	if err != nil {
		return probeResult{}, err
	}
	if _, err := c.Cost(mp); err != nil {
		return probeResult{}, err
	}
	return measure(d, func() error { _, err := c.Cost(mp); return err })
}

// runProbes runs every layer probe and returns the metrics by name:
// probe.<layer>.<instance>.<ns_op|b_op|allocs_op>.
func runProbes() (map[string]float64, error) {
	insts, err := probeInstances()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	runtime.GC() // so no collection of the window's garbage runs under the probes
	put := func(layer, inst string, r probeResult) {
		p := "probe." + layer + "." + inst
		out[p+".ns_op"] = r.nsOp
		out[p+".b_op"] = r.bOp
		out[p+".allocs_op"] = r.allocsOp
	}
	for _, in := range insts {
		r, err := measure(probeTime, func() error {
			_, err := wormhole.NewSimulator(in.mesh, in.cfg, in.g)
			return err
		})
		if err != nil {
			return nil, err
		}
		if in.name != "small" {
			put("new_simulator", in.name, r)
		}

		sim, err := wormhole.NewSimulator(in.mesh, in.cfg, in.g)
		if err != nil {
			return nil, err
		}
		sc := sim.NewScratch()
		mp, err := probeMapping(in.mesh, in.g)
		if err != nil {
			return nil, err
		}
		if _, err := sim.RunScratch(mp, sc); err != nil {
			return nil, err
		}
		if r, err = measure(probeTime, func() error { _, err := sim.RunScratch(mp, sc); return err }); err != nil {
			return nil, err
		}
		put("run_scratch", in.name, r)
		if in.name == "small" {
			continue
		}

		if r, err = probeCDCMCost(in.mesh, in.cfg, in.tech, in.g, mp, probeTime); err != nil {
			return nil, err
		}
		put("cdcm_cost", in.name, r)

		if r, err = probeSwapDelta(in); err != nil {
			return nil, err
		}
		put("cwm_swapdelta", in.name, r)
	}
	return out, nil
}

// probeSwapDelta measures core.CWM.SwapDelta against a bound mapping,
// cycling through a fixed list of tile pairs.
func probeSwapDelta(in probeInstance) (probeResult, error) {
	cwm, err := core.NewCWM(in.mesh, in.cfg, in.tech, in.g.ToCWG())
	if err != nil {
		return probeResult{}, err
	}
	mp, err := probeMapping(in.mesh, in.g)
	if err != nil {
		return probeResult{}, err
	}
	if _, err := cwm.Reset(mp); err != nil {
		return probeResult{}, err
	}
	n := in.mesh.NumTiles()
	occ := mp.Occupants(n)
	rng := rand.New(rand.NewSource(2))
	pairs := make([][2]topology.TileID, 256)
	for i := range pairs {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		pairs[i] = [2]topology.TileID{topology.TileID(a), topology.TileID(b)}
	}
	i := 0
	return measure(probeTime, func() error {
		p := pairs[i%len(pairs)]
		i++
		_, err := cwm.SwapDelta(occ, p[0], p[1])
		return err
	})
}
