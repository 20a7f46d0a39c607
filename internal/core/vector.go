package core

import (
	"fmt"

	"repro/internal/mapping"
)

// The vector-objective view of the two model evaluators: the same pricing
// machinery exposed per component instead of collapsed into one scalar
// (search.VectorObjective). The scalar Cost of each evaluator is the
// weighted collapse of its vector — bit for bit, pinned by tests — so the
// scalar engines, goldens and delta paths are untouched by the vector
// seam; only the Pareto engine reads the extra axes.
//
// Axis names are shared across models where the semantics line up:
// "dynamic_j" is EDyNoC in joules on both models, "latency_cy" is the
// timing axis in cycle units (CDCM: simulated texec including contention;
// CWM: the uncontended bit·cycle hop aggregate — the best a volume-only
// model can say about time), and "static_j" is EStNoC, which only CDCM
// can price because it requires texec (the paper's point).

var (
	cwmAxes    = []string{"dynamic_j", "latency_cy"}
	cwmWeights = []float64{1, 0}

	cdcmAxes    = []string{"dynamic_j", "static_j", "latency_cy"}
	cdcmWeights = []float64{1, 1, 0}
)

// Axes implements search.VectorObjective: dynamic energy and the
// uncontended hop-latency aggregate.
//
//nocvet:noalloc
func (c *CWM) Axes() []string { return cwmAxes }

// CollapseWeights implements search.VectorObjective: CWM's scalar cost is
// EDyNoC alone — the model is blind to timing, so the latency axis
// carries weight zero in the collapse.
//
//nocvet:noalloc
func (c *CWM) CollapseWeights() []float64 { return cwmWeights }

// ComponentsInto implements search.VectorObjective. Component 0 is
// EDyNoC in joules, folded from the identical integer traffic aggregates
// as Cost (bit-identical by construction). Component 1 is the uncontended
// hop-latency aggregate in bit·cycles (see hopLatency) — the timing
// information a volume-only model can extract from a placement (no
// contention, which only the CDCM simulator sees). Both components fall
// out of the one aggregate pass Cost already does, so the vector view
// prices at full-Cost speed and stays allocation-free.
//
// The hot-path contract of search.VectorObjective applies: mp must be
// structurally valid and injective.
//
//nocvet:noalloc
func (c *CWM) ComponentsInto(mp mapping.Mapping, dst []float64) error {
	if len(dst) < len(cwmAxes) {
		return fmt.Errorf("core: component buffer holds %d axes, CWM has %d", len(dst), len(cwmAxes))
	}
	rb, vb, err := c.fold(mp)
	if err != nil {
		return err
	}
	dst[0] = c.Tech.DynamicFromTraffic3D(rb, rb-c.totalBits, vb, c.coreBits)
	dst[1] = c.hopLatency(rb, vb)
	return nil
}

// Components prices mp on CDCM's three axes: EDyNoC and EStNoC in joules
// and texec in cycles.
func (m Metrics) Components() []float64 {
	return []float64{m.Energy.Dynamic, m.Energy.Static, float64(m.ExecCycles)}
}

// Axes implements search.VectorObjective: dynamic energy, static energy
// and simulated execution time.
func (c *CDCM) Axes() []string { return cdcmAxes }

// CollapseWeights implements search.VectorObjective: CDCM's scalar cost
// is ENoC = EDyNoC + EStNoC (equation (10)); texec enters the collapse
// only through the static term, so the explicit latency axis carries
// weight zero.
func (c *CDCM) CollapseWeights() []float64 { return cdcmWeights }

// ComponentsInto implements search.VectorObjective: one simulator run on
// the evaluator's scratch, split into (EDyNoC, EStNoC, texec). The
// collapse 1·dynamic + 1·static + 0·texec accumulates in exactly the
// order Breakdown.Total computes ENoC, so Cost equals the collapsed
// vector bit for bit.
func (c *CDCM) ComponentsInto(mp mapping.Mapping, dst []float64) error {
	if len(dst) < len(cdcmAxes) {
		return fmt.Errorf("core: component buffer holds %d axes, CDCM has %d", len(dst), len(cdcmAxes))
	}
	m, err := c.Evaluate(mp)
	if err != nil {
		return err
	}
	dst[0] = m.Energy.Dynamic
	dst[1] = m.Energy.Static
	dst[2] = float64(m.ExecCycles)
	return nil
}
