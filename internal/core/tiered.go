package core

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/search"
	"repro/internal/topology"
)

// This file implements CDCM's tier-B evaluator for
// search.TieredObjective. CDCM's exact pricing is a full wormhole
// simulation per candidate; its certified bounds need no code here: they
// are the bounds CDCM.PriceBelow offers before the first packet, tier A
// (the simulator's uncontended critical path), then the port-load bound
// (see wormhole.Simulator.RunBelow).
//
// cdcmSurrogate (tier B) is a calibrated analytic predictor of ENoC:
// texec is approximated as an affine function of the uncontended
// hop-latency aggregate L (CWM's latency axis), least-squares fitted per
// instance against a deterministic sample of exact simulations at build
// time (fitSurrogate). It prices swaps incrementally over the CWM
// integer aggregates — roughly the cost of a CWM delta probe — and
// carries no certification: the Metropolis engines that walk on it
// re-price everything that can reach a reported result exactly.

// surrogateFit is the calibrated texec predictor: texec̃ = A + B·L cycles,
// where L is the uncontended hop-latency aggregate (CWM's latency axis).
// Immutable once fitted; shared by every worker lane's cdcmSurrogate so
// the prediction — and therefore the whole tier-B walk — is independent
// of the worker count.
type surrogateFit struct {
	A, B float64
}

// DefaultSurrogateSamples is the tier-B calibration budget when
// Options.SurrogateSamples is zero: enough exact simulations to pin an
// affine fit on the paper's instances, few enough that calibration stays
// a small fraction of the exact evaluations the surrogate then saves.
const DefaultSurrogateSamples = 24

// fitSurrogate calibrates the predictor for one instance: it prices
// `samples` seeded random mappings exactly (on a private clone lane of
// the exact evaluator) and least-squares fits simulated texec against the
// uncontended hop aggregate L. The sample set is keyed by seed alone, so
// a fixed (instance, seed, samples) triple always yields the same fit.
// Degenerate sample sets (constant L) and inverted fits (B < 0, possible
// on contention-dominated instances where L explains nothing) fall back
// to the constant predictor at the mean — the surrogate then ranks by
// dynamic energy alone, which is still a useful walk signal.
func fitSurrogate(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech,
	g *model.CDCG, exact *CDCM, seed int64, samples int) (surrogateFit, error) {
	if samples <= 0 {
		samples = DefaultSurrogateSamples
	}
	feat, err := NewCWM(mesh, cfg, tech, g.ToCWG())
	if err != nil {
		return surrogateFit{}, err
	}
	lane := exact.Clone()
	rng := rand.New(rand.NewSource(seed))
	comps := make([]float64, len(cwmAxes))
	var sx, sy, sxx, sxy float64
	for i := 0; i < samples; i++ {
		mp, err := mapping.Random(rng, g.NumCores(), mesh.NumTiles())
		if err != nil {
			return surrogateFit{}, err
		}
		if err := feat.ComponentsInto(mp, comps); err != nil {
			return surrogateFit{}, err
		}
		m, err := lane.Evaluate(mp)
		if err != nil {
			return surrogateFit{}, err
		}
		x, y := comps[1], float64(m.ExecCycles)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	n := float64(samples)
	var fit surrogateFit
	den := n*sxx - sx*sx
	if den > 0 {
		fit.B = (n*sxy - sx*sy) / den
		fit.A = (sy - fit.B*sx) / n
	}
	if den <= 0 || fit.B < 0 {
		fit = surrogateFit{A: sy / n}
	}
	return fit, nil
}

// cdcmSurrogate implements search.DeltaObjective and
// search.VectorObjective as CDCM's tier-B approximation: ENoC with the
// simulated texec replaced by the fitted predictor. Pricing runs over a
// private CWM's integer aggregates, so a surrogate swap probe costs
// about as much as a CWM delta probe — the "as cheap as CWM" target.
// One instance per worker lane; the fit is shared and immutable.
type cdcmSurrogate struct {
	cwm *CWM
	fit surrogateFit
}

var (
	_ search.DeltaObjective  = (*cdcmSurrogate)(nil)
	_ search.VectorObjective = (*cdcmSurrogate)(nil)
)

// newCDCMSurrogate builds one lane's surrogate evaluator around a fit.
func newCDCMSurrogate(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech,
	g *model.CDCG, fit surrogateFit) (*cdcmSurrogate, error) {
	cwm, err := NewCWM(mesh, cfg, tech, g.ToCWG())
	if err != nil {
		return nil, err
	}
	return &cdcmSurrogate{cwm: cwm, fit: fit}, nil
}

// texecCycles predicts texec (in cycles, clamped non-negative) from the
// traffic aggregates.
//
//nocvet:noalloc
func (s *cdcmSurrogate) texecCycles(rb, vb int64) float64 {
	t := s.fit.A + s.fit.B*s.cwm.hopLatency(rb, vb)
	if t < 0 {
		t = 0
	}
	return t
}

// priceAgg prices the surrogate objective from the traffic aggregates:
// exact dynamic energy plus the predicted static energy, accumulated in
// the same order the exact pricer and Breakdown.Total use so the scalar
// equals the collapsed vector bit for bit.
//
//nocvet:noalloc
func (s *cdcmSurrogate) priceAgg(rb, vb int64) float64 {
	c := s.cwm
	dyn := c.Tech.DynamicFromTraffic3D(rb, rb-c.totalBits, vb, c.coreBits)
	st := c.Tech.StaticPower(c.numTiles) * (s.texecCycles(rb, vb) * c.Cfg.ClockNS * 1e-9)
	return dyn + st
}

// Cost implements search.Objective: the surrogate ENoC of mp.
//
//nocvet:noalloc
func (s *cdcmSurrogate) Cost(mp mapping.Mapping) (float64, error) {
	rb, vb, err := s.cwm.fold(mp)
	if err != nil {
		return 0, err
	}
	return s.priceAgg(rb, vb), nil
}

// Reset implements search.DeltaObjective: binds mp as the incremental
// baseline (validating it) and returns its surrogate cost.
func (s *cdcmSurrogate) Reset(mp mapping.Mapping) (float64, error) {
	if _, err := s.cwm.Reset(mp); err != nil {
		return 0, err
	}
	return s.priceAgg(s.cwm.routerBits, s.cwm.tsvBits), nil
}

// SwapDelta implements search.DeltaObjective: the surrogate cost change
// of exchanging the occupants of ta and tb, priced in O(deg) without
// applying the swap.
//
//nocvet:noalloc
func (s *cdcmSurrogate) SwapDelta(occ []model.CoreID, ta, tb topology.TileID) (float64, error) {
	c := s.cwm
	if c.bound == nil {
		return 0, errors.New("core: surrogate SwapDelta before Reset")
	}
	dR, dV, err := c.swapAgg(occ, ta, tb)
	if err != nil {
		return 0, err
	}
	if dR == 0 && dV == 0 {
		return 0, nil
	}
	rb, vb := c.routerBits, c.tsvBits
	return s.priceAgg(rb+dR, vb+dV) - s.priceAgg(rb, vb), nil
}

// Commit implements search.DeltaObjective: folds an accepted swap into
// the baseline and returns the updated baseline's surrogate cost.
//
//nocvet:noalloc
func (s *cdcmSurrogate) Commit(ta, tb topology.TileID) float64 {
	s.cwm.Commit(ta, tb)
	return s.priceAgg(s.cwm.routerBits, s.cwm.tsvBits)
}

// Axes implements search.VectorObjective: the surrogate prices the same
// three axes as CDCM (dynamic energy, static energy, texec), with the
// latter two predicted instead of simulated — which is what lets the
// Pareto engine walk on it in CDCM's place.
//
//nocvet:noalloc
func (s *cdcmSurrogate) Axes() []string { return cdcmAxes }

// CollapseWeights implements search.VectorObjective (same collapse as
// CDCM: ENoC = dynamic + static).
//
//nocvet:noalloc
func (s *cdcmSurrogate) CollapseWeights() []float64 { return cdcmWeights }

// ComponentsInto implements search.VectorObjective.
//
//nocvet:noalloc
func (s *cdcmSurrogate) ComponentsInto(mp mapping.Mapping, dst []float64) error {
	if len(dst) < len(cdcmAxes) {
		return fmt.Errorf("core: component buffer holds %d axes, surrogate has %d", len(dst), len(cdcmAxes))
	}
	rb, vb, err := s.cwm.fold(mp)
	if err != nil {
		return err
	}
	c := s.cwm
	t := s.texecCycles(rb, vb)
	dst[0] = c.Tech.DynamicFromTraffic3D(rb, rb-c.totalBits, vb, c.coreBits)
	dst[1] = c.Tech.StaticPower(c.numTiles) * (t * c.Cfg.ClockNS * 1e-9)
	dst[2] = t
	return nil
}
