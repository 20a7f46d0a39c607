package search

import "repro/internal/mapping"

// This file is the two-tier evaluation seam: cheaper evaluation tiers
// over an exact pricer, so the engines can avoid paying the exact cost (a
// full wormhole simulation for CDCM) on every candidate.
//
//   - Tier A is a certified lower bound, offered by an exact objective
//     that is a CutoffObjective: before any exact work, PriceBelow hands
//     the engine's rejection test bounds ≤ the exact cost, bitwise on the
//     computed float64s (for CDCM, the simulator's uncontended critical
//     path, then the port-load bound). A candidate is either skipped at
//     a bound or priced in full. A walk certifies when its exact tier
//     is a CutoffObjective and it is on neither the delta nor the
//     surrogate path. The strict-improvement engines (HillClimber, Tabu)
//     skip a candidate whose bound already proves it cannot beat the
//     scan's threshold, so Best, BestCost and the accept/reject
//     trajectory stay bit-identical to an uncertified run. The Annealer
//     tests the bounds for certified Metropolis rejection: lb > cost
//     proves the exact delta d > 0, so the walk draws its uniform u as
//     soon as it sees such a bound and skips the move when
//     exp(−(lb−cost)/T)·(1+1e-9) < u — the exact test u < exp(−d/T) is
//     then certain to fail (see certainReject for the float argument),
//     and a fully priced move reuses the drawn u, so the RNG stream and
//     the walk are unchanged.
//   - Tier B, Surrogate, is an opt-in calibrated approximation (a
//     DeltaObjective fitted against exact evaluations at build time)
//     carried by a TieredObjective. The Metropolis engines (Annealer,
//     ParetoSA) walk on surrogate deltas and pay the exact price only for
//     accepted moves, so the incumbent Best and every archived front
//     point remain exact-priced; the walk itself is approximate, so
//     results are deterministic but not bit-identical to a
//     surrogate-free run.
//
// The tier is chosen once per walk, where the walk is bound: the
// incumbent (incumbent.go) unwraps a TieredObjective and prices the
// Annealer's, HillClimber's and Tabu's candidates on the exact tier's
// DeltaObjective when it has one, else — only for the Annealer — on the
// surrogate, else in full on the exact tier, certified when that is a
// CutoffObjective. ParetoSA takes its vector view from the exact tier
// and its vector surrogate through surrogateOf. Engines that use
// neither tier (exhaustive, random) see only Exact through the plain
// Objective interface, so wrapping is behaviourally free for them.

// CutoffObjective is an exact objective that can skip pricing a
// candidate once a certified lower bound on its cost settles the
// caller's decision. For CDCM the bounds are tier A, the uncontended
// critical path, and the port-load bound, both known before the first
// packet is simulated.
type CutoffObjective interface {
	Objective
	// PriceBelow offers reject certified lower bounds lb ≤ Cost(mp) —
	// bitwise on the computed float64s — in increasing order, before any
	// exact work. It reports skipped, with a meaningless cost, as soon as
	// reject(lb) holds; otherwise it returns Cost(mp). Like Cost, it
	// assumes a structurally valid, injective mapping.
	PriceBelow(mp mapping.Mapping, reject func(lb float64) bool) (cost float64, skipped bool, err error)
}

// TieredObjective wraps an exact Objective with the tier-B surrogate.
// Exact is authoritative: Cost forwards to it, so any engine (or caller)
// that ignores the surrogate prices exactly as before, and the engines
// unwrap it (exactOf) to price, certify or take the vector view on the
// exact tier itself.
type TieredObjective struct {
	// Exact is the authoritative pricer (the CDCM evaluator in core).
	Exact Objective
	// Surrogate, when non-nil, is the tier-B calibrated approximation the
	// Metropolis engines walk on. It needs no ordering guarantee — every
	// decision it influences is re-checked with an exact pricing before
	// it can reach a reported result.
	Surrogate DeltaObjective
}

// Cost implements Objective by forwarding to the exact tier.
func (t *TieredObjective) Cost(mp mapping.Mapping) (float64, error) { return t.Exact.Cost(mp) }

// exactOf unwraps the authoritative pricer: the exact tier of a
// TieredObjective, obj itself otherwise. The incumbent and ParetoSA go
// through it so a tiered CDCM run takes exactly the code path a bare
// CDCM run takes.
func exactOf(obj Objective) Objective {
	if t, ok := obj.(*TieredObjective); ok {
		return t.Exact
	}
	return obj
}

// surrogateOf returns the tier-B surrogate of a tiered objective, or nil.
func surrogateOf(obj Objective) DeltaObjective {
	if t, ok := obj.(*TieredObjective); ok {
		return t.Surrogate
	}
	return nil
}
