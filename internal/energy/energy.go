// Package energy implements the paper's NoC energy model (Section 3.2):
// per-bit dynamic energies (equations (1)-(4)) and static leakage power
// and energy (equations (5), (9), (10)), plus the technology profiles used
// by the evaluation (0.35µm and 0.07µm).
package energy

import (
	"fmt"
)

// Tech is one technology operating point. All energies are in joules, all
// powers in watts.
type Tech struct {
	// Name identifies the profile ("0.35um", "0.07um", ...).
	Name string
	// ERbit is the dynamic energy one bit dissipates traversing a router
	// (wires, buffers and logic gates).
	ERbit float64
	// ELbit is the dynamic energy one bit dissipates on an inter-tile
	// link. The paper assumes square tiles, so the horizontal and
	// vertical components ELHbit and ELVbit collapse to one value.
	ELbit float64
	// ECbit is the dynamic energy one bit dissipates on a core↔router
	// link; the paper treats it as negligible for large tiles (its
	// example sets it to zero).
	ECbit float64
	// ETSVbit is the dynamic energy one bit dissipates on a vertical
	// (through-silicon-via) link of a 3-D topology — the EvBit analogue of
	// the ELHbit/ELVbit split the paper collapses for square 2-D tiles.
	// TSVs are far shorter than planar inter-tile wires, so profiles set
	// it well below ELbit. 0 means "same as ELbit" (see TSVBit), so
	// profiles predating the 3-D extension stay valid; the coefficient
	// only enters pricing when vertical traffic exists, never on 2-D
	// grids.
	ETSVbit float64
	// PSRouter is the static (leakage) power of one router.
	PSRouter float64
}

// TSVBit returns the effective per-bit vertical-link energy: ETSVbit when
// set, ELbit otherwise.
//
//nocvet:noalloc
func (t Tech) TSVBit() float64 {
	if t.ETSVbit > 0 {
		return t.ETSVbit
	}
	return t.ELbit
}

// Validate checks physical plausibility (non-negative coefficients).
func (t Tech) Validate() error {
	if t.ERbit < 0 || t.ELbit < 0 || t.ECbit < 0 || t.ETSVbit < 0 || t.PSRouter < 0 {
		return fmt.Errorf("energy: negative coefficient in profile %q", t.Name)
	}
	return nil
}

// BitEnergy returns EBit_ij of equation (2): the dynamic energy of one bit
// travelling from tile i to tile j through K routers and K-1 inter-tile
// links, plus the two core↔router hops (the ECbit term of equation (1),
// zero in the paper's example):
//
//	EBit_ij = K*ERbit + (K-1)*ELbit + 2*ECbit
func (t Tech) BitEnergy(k int) float64 {
	if k <= 0 {
		return 0
	}
	return float64(k)*t.ERbit + float64(k-1)*t.ELbit + 2*t.ECbit
}

// DynamicFromTraffic returns EDyNoC (equations (3)/(4)) from traffic
// aggregates: routerBits is Σ w over every (packet, router) traversal,
// linkBits over every (packet, inter-tile link) traversal, and coreBits
// over every (packet, core↔router link) traversal. The simulator and the
// CWM path evaluator both produce exactly these aggregates, which is why
// the two models agree on dynamic energy for a fixed mapping.
//
//nocvet:noalloc
func (t Tech) DynamicFromTraffic(routerBits, linkBits, coreBits int64) float64 {
	return t.DynamicFromTraffic3D(routerBits, linkBits, 0, coreBits)
}

// DynamicFromTraffic3D is DynamicFromTraffic with the vertical-link
// traffic split out: tsvBits (a subset of linkBits) is priced at TSVBit
// instead of ELbit. With tsvBits == 0 the expression reduces, operation
// for operation, to the 2-D formula — which is what keeps depth-1 grids
// bit-identical to the original model.
//
//nocvet:noalloc
func (t Tech) DynamicFromTraffic3D(routerBits, linkBits, tsvBits, coreBits int64) float64 {
	e := float64(routerBits)*t.ERbit + float64(linkBits-tsvBits)*t.ELbit + float64(coreBits)*t.ECbit
	if tsvBits != 0 {
		e += float64(tsvBits) * t.TSVBit()
	}
	return e
}

// StaticPower returns PStNoC of equation (5): numTiles * PSRouter.
//
//nocvet:noalloc
func (t Tech) StaticPower(numTiles int) float64 {
	if numTiles <= 0 {
		return 0
	}
	return float64(numTiles) * t.PSRouter
}

// StaticEnergy returns EStNoC of equation (9): PStNoC * texec.
//
//nocvet:noalloc
func (t Tech) StaticEnergy(numTiles int, execSeconds float64) float64 {
	if execSeconds < 0 {
		return 0
	}
	return t.StaticPower(numTiles) * execSeconds
}

// Breakdown is a priced mapping: the two energy components of equation
// (10).
type Breakdown struct {
	Dynamic float64 // EDyNoC, joules
	Static  float64 // EStNoC, joules
}

// Total returns ENoC = EStNoC + EDyNoC (equation (10)).
//
//nocvet:noalloc
func (b Breakdown) Total() float64 { return b.Dynamic + b.Static }

// StaticShare returns the leakage fraction of the total energy in [0,1].
func (b Breakdown) StaticShare() float64 {
	t := b.Total()
	if t <= 0 {
		return 0
	}
	return b.Static / t
}

// PaperExample returns the constants of the paper's Section 4.1 example:
// ERbit = ELbit = 1 pJ/bit, ECbit = 0, and PStNoC = 0.1 pJ/ns for the
// 2x2 NoC, i.e. PSRouter = 0.025 pJ/ns = 25 µW.
func PaperExample() Tech {
	return Tech{
		Name:     "paper-example",
		ERbit:    1e-12,
		ELbit:    1e-12,
		ECbit:    0,
		PSRouter: 0.025e-12 / 1e-9, // 0.025 pJ/ns per router
	}
}

// Tech035 models a 0.35µm process. Leakage is negligible at this node
// (the paper measures average energy savings of only 0.65% there), so the
// profile has large dynamic per-bit energies — long 3.3V wires — and a
// router leakage chosen so that static energy is 1-2% of a typical
// workload's NoC energy.
var Tech035 = Tech{
	Name:     "0.35um",
	ERbit:    4.0e-12,
	ELbit:    6.0e-12,
	ECbit:    0,
	ETSVbit:  1.2e-12, // TSVs are ~mm-to-µm shorter than planar links: ELbit/5
	PSRouter: 55e-6,   // 55 µW per router
}

// Tech007 models a projected 0.07µm process following the paper's
// reference [8] (Duarte et al., ICCD'02): dynamic energy per bit shrinks
// with V²C while leakage grows steeply, making static energy a large
// share of the NoC total — the regime where CDCM's execution-time
// reductions convert into energy savings. The constants put the static
// share of a typical workload near 50%, consistent with the paper's
// measured ECS0.07 ≈ 0.5 × ETR.
var Tech007 = Tech{
	Name:     "0.07um",
	ERbit:    0.16e-12,
	ELbit:    0.24e-12,
	ECbit:    0,
	ETSVbit:  0.048e-12, // ELbit/5, same short-wire ratio as Tech035
	PSRouter: 155e-6,    // 155 µW per router, leakage dominated
}
