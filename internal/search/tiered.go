package search

import (
	"errors"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/topology"
)

// errNoVector reports a vector call on a tiered objective whose exact
// tier is scalar-only.
var errNoVector = errors.New("search: tiered objective's exact tier is not a VectorObjective")

// This file is the two-tier evaluation seam: a TieredObjective layers
// cheaper evaluation tiers over an exact pricer so the engines can avoid
// paying the exact cost (a full wormhole simulation for CDCM) on every
// candidate.
//
//   - Tier A, LowerBoundObjective, is a certified lower bound: for any
//     candidate, Bound ≤ exact Cost, bitwise on the computed float64s.
//     The strict-improvement engines (HillClimber, Tabu) use it to skip
//     swaps whose bound already proves they cannot beat the incumbent
//     threshold — the skipped candidates are exactly the ones the exact
//     scan would have rejected, so Best, BestCost and the accept/reject
//     trajectory stay bit-identical to the unfiltered run. The Annealer
//     uses it for certified Metropolis rejection: lb > cost proves the
//     exact delta d > 0, so the walk draws its uniform u as soon as it
//     sees such a bound and stops pricing when exp(−(lb−cost)/T)·(1+1e-9)
//     < u — the exact test u < exp(−d/T) is then certain to fail (see
//     certainReject for the float argument), and a fully priced move
//     reuses the drawn u, so the RNG stream and the walk are unchanged.
//     An exact tier that is a CutoffObjective carries that test into the
//     pricing itself (PriceBelow): it checks the tier-A bound before any
//     work and keeps tightening it as it goes, so a rejected candidate
//     also stops part-way through its simulation.
//   - Tier B, Surrogate, is an opt-in calibrated approximation (a
//     DeltaObjective fitted against exact evaluations at build time).
//     The Metropolis engines (Annealer, ParetoSA) walk on surrogate
//     deltas and pay the exact price only for accepted moves, so the
//     incumbent Best and every archived front point remain exact-priced;
//     the walk itself is approximate, so results are deterministic but
//     not bit-identical to a surrogate-free run.
//
// Engines that use neither tier (exhaustive, random) see only Exact
// through the plain Objective interface, so wrapping is behaviourally
// free for them.

// LowerBoundObjective prices a certified lower bound of an exact
// objective incrementally, mirroring the DeltaObjective bind/price/apply
// protocol — except that SwapBound returns the absolute bound of the
// swapped mapping, not a delta. Returning the absolute value is what
// keeps the certificate sound in floating point: the implementation
// derives it from the swapped state's aggregates through the same
// monotone float pipeline the exact evaluator uses, so
// bound(candidate) ≤ exactCost(candidate) holds on the computed
// float64s, not merely in exact arithmetic.
//
// Like DeltaObjective, an implementation is stateful between ResetBound
// and the last CommitBound and is not safe for concurrent use; parallel
// engines bind one instance per worker lane.
type LowerBoundObjective interface {
	// ResetBound binds a copy of mp as the incremental baseline and
	// returns its bound. It validates mp, making the tiered path a
	// validating entry point like DeltaObjective.Reset.
	ResetBound(mp mapping.Mapping) (float64, error)
	// SwapBound returns the certified lower bound of the mapping obtained
	// by exchanging the occupants of ta and tb, without applying the
	// swap. occ is the occupancy view of the bound mapping.
	SwapBound(occ []model.CoreID, ta, tb topology.TileID) (float64, error)
	// CommitBound folds an accepted swap into the bound baseline. Call it
	// exactly when the engine applies a move to its working mapping.
	CommitBound(ta, tb topology.TileID)
}

// Cut reports how far a cut-off pricing ran (see CutoffObjective).
type Cut int

const (
	// Uncut means the candidate was priced in full.
	Uncut Cut = iota
	// CutAtBound means the first certified bound settled the decision
	// before any exact work; engines count it as a bound skip.
	CutAtBound
	// CutEarly means the pricing stopped part-way through its exact work;
	// engines count it as an exact evaluation.
	CutEarly
)

// CutoffObjective is an exact objective that can stop pricing a
// candidate once a certified lower bound on its cost settles the
// caller's decision. For CDCM the bound starts at the tier-A critical
// path and tightens as the simulation books packets.
type CutoffObjective interface {
	Objective
	// PriceBelow returns Cost(mp) and Uncut, unless reject(lb) holds for
	// some certified lower bound lb ≤ Cost(mp) — bitwise on the computed
	// float64s — met on the way; it then stops at once and reports where
	// (CutAtBound or CutEarly), and the returned cost is meaningless.
	// The bounds passed to reject never decrease. Like Cost, it assumes a
	// structurally valid, injective mapping.
	PriceBelow(mp mapping.Mapping, reject func(lb float64) bool) (float64, Cut, error)
}

// TieredObjective wraps an exact Objective with optional cheaper tiers.
// Exact is authoritative: Cost forwards to it, so any engine (or caller)
// that ignores the tiers prices exactly as before. Bound and Surrogate
// are both optional and independent.
type TieredObjective struct {
	// Exact is the authoritative pricer (the CDCM evaluator in core).
	Exact Objective
	// Bound, when non-nil, is the tier-A certified lower bound used by
	// the strict-improvement engines and, when it walks on exact prices,
	// the Annealer (through Exact's PriceBelow when Exact is a
	// CutoffObjective). It must satisfy Bound ≤ Exact.Cost on the
	// computed float64s for every candidate.
	Bound LowerBoundObjective
	// Surrogate, when non-nil, is the tier-B calibrated approximation the
	// Metropolis engines walk on. It needs no ordering guarantee — every
	// decision it influences is re-checked with an exact pricing before
	// it can reach a reported result.
	Surrogate DeltaObjective
}

// Cost implements Objective by forwarding to the exact tier.
func (t *TieredObjective) Cost(mp mapping.Mapping) (float64, error) { return t.Exact.Cost(mp) }

// exactVector returns the exact tier's vector view, or nil.
func (t *TieredObjective) exactVector() VectorObjective {
	v, ok := t.Exact.(VectorObjective)
	if !ok {
		return nil
	}
	return v
}

// Axes implements VectorObjective by forwarding to the exact tier; a
// tiered objective over a scalar-only exact pricer reports no axes (and
// vectorObjective rejects it, exactly as it rejects the bare pricer).
func (t *TieredObjective) Axes() []string {
	if v := t.exactVector(); v != nil {
		return v.Axes()
	}
	return nil
}

// CollapseWeights implements VectorObjective by forwarding to the exact
// tier.
func (t *TieredObjective) CollapseWeights() []float64 {
	if v := t.exactVector(); v != nil {
		return v.CollapseWeights()
	}
	return nil
}

// ComponentsInto implements VectorObjective by forwarding to the exact
// tier.
func (t *TieredObjective) ComponentsInto(mp mapping.Mapping, dst []float64) error {
	if v := t.exactVector(); v != nil {
		return v.ComponentsInto(mp, dst)
	}
	return errNoVector
}

var _ VectorObjective = (*TieredObjective)(nil)

// exactOf unwraps the authoritative pricer: the exact tier of a
// TieredObjective, obj itself otherwise. bindObjective and the engines'
// full-price paths go through it so a tiered CDCM run takes exactly the
// code path a bare CDCM run takes.
func exactOf(obj Objective) Objective {
	if t, ok := obj.(*TieredObjective); ok {
		return t.Exact
	}
	return obj
}

// boundOf returns the tier-A bound of a tiered objective, or nil.
func boundOf(obj Objective) LowerBoundObjective {
	if t, ok := obj.(*TieredObjective); ok {
		return t.Bound
	}
	return nil
}

// surrogateOf returns the tier-B surrogate of a tiered objective, or nil.
func surrogateOf(obj Objective) DeltaObjective {
	if t, ok := obj.(*TieredObjective); ok {
		return t.Surrogate
	}
	return nil
}

// bindBound primes the tier-A bound for a walk starting at mp. It
// returns (nil, nil) when obj carries no bound — the caller falls back
// to the unfiltered scan.
func bindBound(obj Objective, mp mapping.Mapping) (LowerBoundObjective, error) {
	bnd := boundOf(obj)
	if bnd == nil {
		return nil, nil
	}
	if _, err := bnd.ResetBound(mp); err != nil {
		return nil, err
	}
	return bnd, nil
}
