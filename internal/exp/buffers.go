package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/trace"
	"repro/internal/wormhole"
)

// BufferOutcome reports execution time as a function of router
// input-buffer depth for one workload, under the CWM winner and the CDCM
// winner. The paper motivates CDCM partly through reference [7]
// ("reducing the required buffers in the communication network"): a
// timing-aware mapping keeps packets out of each other's way, so it
// degrades less when buffers shrink.
type BufferOutcome struct {
	Workload string
	Depths   []int64
	// CWMExec[i] / CDCMExec[i] are texec in cycles with input buffers of
	// Depths[i] flits; the last entry is the unbounded reference.
	CWMExec, CDCMExec []int64
}

// RunBuffers evaluates both strategy winners across buffer depths.
func RunBuffers(suite []Workload, cfg noc.Config, depths []int64, searchOpts core.Options) ([]BufferOutcome, error) {
	if cfg == (noc.Config{}) {
		cfg = noc.Default()
	}
	if len(depths) == 0 {
		depths = []int64{1, 2, 4, 8, 16}
	}
	var outs []BufferOutcome
	for _, w := range suite {
		mesh, err := w.Mesh()
		if err != nil {
			return nil, err
		}
		cmp, err := core.CompareModels(mesh, cfg, w.G, core.CompareOptions{Options: searchOpts})
		if err != nil {
			return nil, err
		}
		cdcmMap := cmp.CDCMMappings[energy.Tech007.Name]
		// The last depth, -1, is the unbounded reference.
		o := BufferOutcome{Workload: w.Name, Depths: append(append([]int64(nil), depths...), -1)}
		for i, d := range o.Depths {
			c := cfg
			if i < len(depths) {
				c.Buffers = noc.BuffersBounded
				c.BufferFlits = d
			}
			// One simulator and one scratch per config price both winners.
			sim, err := wormhole.NewSimulator(mesh, c, w.G)
			if err != nil {
				return nil, err
			}
			sc := sim.NewScratch()
			res, err := sim.RunScratch(cmp.CWMMapping, sc)
			if err != nil {
				return nil, err
			}
			o.CWMExec = append(o.CWMExec, res.ExecCycles)
			if res, err = sim.RunScratch(cdcmMap, sc); err != nil {
				return nil, err
			}
			o.CDCMExec = append(o.CDCMExec, res.ExecCycles)
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// RenderBuffers formats the buffer-depth sweep.
func RenderBuffers(outs []BufferOutcome) string {
	headers := []string{"workload", "mapping"}
	if len(outs) > 0 {
		for _, d := range outs[0].Depths {
			if d < 0 {
				headers = append(headers, "unbounded")
			} else {
				headers = append(headers, fmt.Sprintf("B=%d", d))
			}
		}
	}
	var rows [][]string
	for _, o := range outs {
		cw := []string{o.Workload, "CWM"}
		cd := []string{"", "CDCM"}
		for i := range o.Depths {
			cw = append(cw, fmt.Sprint(o.CWMExec[i]))
			cd = append(cd, fmt.Sprint(o.CDCMExec[i]))
		}
		rows = append(rows, cw, cd)
	}
	return "Buffer-depth sweep — texec (cycles) vs router input-buffer size (ref. [7] motivation)\n" +
		trace.Table(headers, rows)
}
