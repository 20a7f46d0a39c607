package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/par"
	"repro/internal/topology"
	"repro/internal/trace"
)

// AblationOutcome reports one workload explored under a model/routing/
// topology variant. The paper treats the mesh with XY routing as its
// target and notes "other NoC topologies can be equally treated"; these
// ablations substantiate that the framework is topology-agnostic and
// quantify the model's design choices: routing order, wrap-around links
// and core-link arbitration.
type AblationOutcome struct {
	Workload string
	Variant  string
	// ExecCycles/TotalPJ/ContentionCycles price the CDCM winner under
	// Tech007.
	ExecCycles       int64
	TotalPJ          float64
	ContentionCycles int64
}

// AblationVariant names a configuration under test.
type AblationVariant struct {
	Name string
	// Torus switches the grid to wrap-around links.
	Torus bool
	// Routing selects the deterministic routing function.
	Routing topology.RoutingAlgo
	// ArbitrateLocal makes the core-attachment path exclusive.
	ArbitrateLocal bool
}

// DefaultAblations returns the standard variant set: the paper's model,
// YX routing, a torus, and arbitrated delivery.
func DefaultAblations() []AblationVariant {
	return []AblationVariant{
		{Name: "mesh/XY (paper)", Routing: topology.RouteXY},
		{Name: "mesh/YX", Routing: topology.RouteYX},
		{Name: "torus/XY", Torus: true, Routing: topology.RouteXY},
		{Name: "mesh/XY+arbitrated-local", Routing: topology.RouteXY, ArbitrateLocal: true},
	}
}

// RunAblations explores each workload under each variant with the CDCM
// strategy and a fixed budget. The (workload, variant) grid runs on a
// worker pool sized by opts.Workers; outcomes are stored by grid index,
// so the result order never depends on scheduling.
func RunAblations(suite []Workload, variants []AblationVariant, opts core.Options) ([]AblationOutcome, error) {
	if len(variants) == 0 {
		variants = DefaultAblations()
	}
	outs := make([]AblationOutcome, len(suite)*len(variants))
	// opts.Ctx (when set) cancels the batch and the explorations within.
	err := par.ForEachCtx(opts.Ctx, len(outs), opts.Workers, func(i int) error {
		w := suite[i/len(variants)]
		v := variants[i%len(variants)]
		var mesh *topology.Mesh
		var err error
		if v.Torus {
			mesh, err = topology.NewTorus(w.MeshW, w.MeshH)
		} else {
			mesh, err = topology.NewMesh(w.MeshW, w.MeshH)
		}
		if err != nil {
			return err
		}
		cfg := noc.Default()
		cfg.Routing = v.Routing
		cfg.ArbitrateLocal = v.ArbitrateLocal
		res, err := core.Explore(core.StrategyCDCM, mesh, cfg, energy.Tech007, w.G, opts)
		if err != nil {
			return fmt.Errorf("exp: ablation %s on %s: %w", v.Name, w.Name, err)
		}
		outs[i] = AblationOutcome{
			Workload:         w.Name,
			Variant:          v.Name,
			ExecCycles:       res.Metrics.ExecCycles,
			TotalPJ:          res.Metrics.Total() * 1e12,
			ContentionCycles: res.Metrics.ContentionCycles,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// RenderAblations formats the variant comparison.
func RenderAblations(outs []AblationOutcome) string {
	headers := []string{"workload", "variant", "texec (cy)", "ENoC (pJ)", "contention (cy)"}
	var rows [][]string
	last := ""
	for _, o := range outs {
		name := o.Workload
		if name == last {
			name = ""
		} else {
			last = o.Workload
		}
		rows = append(rows, []string{
			name, o.Variant,
			fmt.Sprint(o.ExecCycles),
			fmt.Sprintf("%.5g", o.TotalPJ),
			fmt.Sprint(o.ContentionCycles),
		})
	}
	return "Topology/routing ablations — CDCM winner per variant (Tech 0.07um)\n" +
		trace.Table(headers, rows)
}
