// Package noc holds the architectural configuration of the target
// network-on-chip: flit width, per-hop timing (the tr and tl parameters of
// equations (6)-(8)), the clock period λ, the routing discipline and the
// buffering policy.
package noc

import (
	"fmt"

	"repro/internal/topology"
)

// BufferPolicy selects how router input buffers behave under contention.
type BufferPolicy int

const (
	// BuffersUnbounded models infinitely deep input buffers: a blocked
	// packet is fully absorbed by the contended router, so upstream
	// resources drain on their nominal schedule. This is the policy of
	// the paper's worked example ("unbounded router buffers").
	BuffersUnbounded BufferPolicy = iota
	// BuffersBounded models input buffers of Config.BufferFlits flits:
	// when a packet stalls longer than the buffer can absorb, the stall
	// propagates upstream and extends the occupancy of earlier resources
	// (extension; see wormhole package for the analytic model).
	BuffersBounded
)

func (p BufferPolicy) String() string {
	if p == BuffersBounded {
		return "bounded"
	}
	return "unbounded"
}

// Config is the NoC architecture description shared by the wormhole timing
// simulator and the energy model.
type Config struct {
	// FlitBits is the link width: a packet of w bits becomes
	// ceil(w/FlitBits) flits. The paper's worked example uses 1.
	FlitBits int
	// RoutingCycles is tr, the cycles a router needs to take a routing
	// decision for the header flit.
	RoutingCycles int64
	// LinkCycles is tl, the cycles needed to move one flit across any
	// link (inter-tile or core↔router).
	LinkCycles int64
	// TSVLinkCycles is the per-flit traversal time of a vertical
	// (through-silicon-via) link on 3-D topologies, the tl analogue of the
	// TSV latency profile. 0 means "same as LinkCycles". Ignored on
	// depth-1 grids, which have no vertical links.
	TSVLinkCycles int64
	// ClockNS is the clock period λ in nanoseconds.
	ClockNS float64
	// Routing selects the deterministic routing function (XY or YX).
	Routing topology.RoutingAlgo
	// Buffers selects the input-buffer policy.
	Buffers BufferPolicy
	// BufferFlits is the input-buffer depth in flits; only meaningful
	// with BuffersBounded.
	BufferFlits int64
	// ArbitrateLocal, when true, makes the whole core-attachment path —
	// the core output link, the router's local output port and the core
	// input link — exclusive resources like the inter-tile ports. The
	// paper does NOT arbitrate that path: its CRG (Definition 3) contains
	// only tiles and inter-tile links as contention resources, and Figure
	// 3(b) shows B→F [16,56] and A→F [48,63] overlapping on core F's
	// input link. Core links remain timed (tl per flit) either way.
	// Leave false for paper-faithful behaviour; true is an ablation (see
	// EXPERIMENTS.md).
	ArbitrateLocal bool
}

// Default returns the configuration used by the experiment suite: 1-bit
// flits, tr=2, tl=1, 1 ns clock, XY routing, unbounded buffers — the
// parameters of the paper's own worked example. The bit-level link width
// is consistent with Table 1, whose totals go as low as 174 bits for a
// whole application; packet transmission times then sit in the same range
// as computation times, which is the regime where contention (and hence
// the CWM/CDCM gap) matters.
func Default() Config {
	return Config{
		FlitBits:      1,
		RoutingCycles: 2,
		LinkCycles:    1,
		ClockNS:       1,
		Routing:       topology.RouteXY,
		Buffers:       BuffersUnbounded,
	}
}

// PaperExample returns the exact configuration of the paper's Section 4.1
// example: tr=2 cycles, tl=1 cycle, λ=1 ns, one-bit flits, unbounded
// buffers, XY routing.
func PaperExample() Config {
	return Config{
		FlitBits:      1,
		RoutingCycles: 2,
		LinkCycles:    1,
		ClockNS:       1,
		Routing:       topology.RouteXY,
		Buffers:       BuffersUnbounded,
	}
}

// Validate checks the configuration for physical plausibility.
func (c Config) Validate() error {
	if c.FlitBits <= 0 {
		return fmt.Errorf("noc: flit width must be positive, got %d", c.FlitBits)
	}
	if c.RoutingCycles < 0 {
		return fmt.Errorf("noc: routing cycles must be non-negative, got %d", c.RoutingCycles)
	}
	if c.LinkCycles <= 0 {
		return fmt.Errorf("noc: link cycles must be positive, got %d", c.LinkCycles)
	}
	if c.ClockNS <= 0 {
		return fmt.Errorf("noc: clock period must be positive, got %g", c.ClockNS)
	}
	switch c.Routing {
	case topology.RouteXY, topology.RouteYX, topology.RouteXYZ, topology.RouteZYX, topology.RouteFA:
	default:
		return fmt.Errorf("noc: unknown routing algorithm %d", c.Routing)
	}
	if c.TSVLinkCycles < 0 {
		return fmt.Errorf("noc: TSV link cycles must be non-negative, got %d", c.TSVLinkCycles)
	}
	if c.Buffers == BuffersBounded && c.BufferFlits <= 0 {
		return fmt.Errorf("noc: bounded buffers need a positive depth, got %d", c.BufferFlits)
	}
	return nil
}

// Flits returns the number of flits of a packet of the given bit volume:
// n_abq = ceil(w_abq / FlitBits).
//
//nocvet:noalloc
func (c Config) Flits(bits int64) int64 {
	if bits <= 0 {
		return 0
	}
	fb := int64(c.FlitBits)
	return (bits + fb - 1) / fb
}

// TSVCycles returns the effective per-flit vertical-link traversal time:
// TSVLinkCycles when set, LinkCycles otherwise. The wormhole simulator
// applies it per vertical hop, so on depth-1 grids it never enters any
// timing computation.
//
//nocvet:noalloc
func (c Config) TSVCycles() int64 {
	if c.TSVLinkCycles > 0 {
		return c.TSVLinkCycles
	}
	return c.LinkCycles
}

// UncontendedDelay returns the total packet delay of equation (8) in
// cycles for a packet of n flits crossing K routers without contention:
// d = K*(tr+tl) + tl*n. The eq-(6)-(8) helpers assume the uniform
// per-hop link time tl of the paper's 2-D model; on 3-D grids with
// TSVLinkCycles ≠ LinkCycles the simulator prices each hop individually
// and these closed forms are horizontal-path approximations.
func (c Config) UncontendedDelay(k int, flits int64) int64 {
	return int64(k)*(c.RoutingCycles+c.LinkCycles) + c.LinkCycles*flits
}

// RoutingDelay returns the routing (path set-up) delay of equation (6) in
// cycles: dR = K*(tr+tl) + tl.
func (c Config) RoutingDelay(k int) int64 {
	return int64(k)*(c.RoutingCycles+c.LinkCycles) + c.LinkCycles
}

// PayloadDelay returns the payload streaming delay of equation (7) in
// cycles: dP = tl*(n-1).
func (c Config) PayloadDelay(flits int64) int64 {
	if flits <= 0 {
		return 0
	}
	return c.LinkCycles * (flits - 1)
}

// CyclesToNS converts a cycle count to nanoseconds using λ.
//
//nocvet:noalloc
func (c Config) CyclesToNS(cycles int64) float64 { return float64(cycles) * c.ClockNS }

// CyclesToSeconds converts a cycle count to seconds using λ.
//
//nocvet:noalloc
func (c Config) CyclesToSeconds(cycles int64) float64 { return float64(cycles) * c.ClockNS * 1e-9 }
