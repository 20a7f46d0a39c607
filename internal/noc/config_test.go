package noc

import (
	"testing"

	"repro/internal/topology"
)

func TestDefaultsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default invalid: %v", err)
	}
	if PaperExample() != Default() {
		t.Fatalf("PaperExample %+v differs from Default %+v", PaperExample(), Default())
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero flit", func(c *Config) { c.FlitBits = 0 }},
		{"negative tr", func(c *Config) { c.RoutingCycles = -1 }},
		{"zero tl", func(c *Config) { c.LinkCycles = 0 }},
		{"zero clock", func(c *Config) { c.ClockNS = 0 }},
		{"bad routing", func(c *Config) { c.Routing = topology.RoutingAlgo(9) }},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", m.name)
		}
	}
}

func TestFlits(t *testing.T) {
	c := Config{FlitBits: 16, RoutingCycles: 2, LinkCycles: 1, ClockNS: 1} // 16-bit flits
	cases := []struct{ bits, want int64 }{
		{1, 1}, {15, 1}, {16, 1}, {17, 2}, {32, 2}, {33, 3}, {0, 0}, {-5, 0},
	}
	for _, tc := range cases {
		if got := c.Flits(tc.bits); got != tc.want {
			t.Errorf("Flits(%d) = %d, want %d", tc.bits, got, tc.want)
		}
	}
	p := Default() // 1-bit flits: n equals w
	if p.Flits(40) != 40 {
		t.Errorf("paper Flits(40) = %d", p.Flits(40))
	}
}

func TestDelayEquations(t *testing.T) {
	c := Default() // tr=2 tl=1
	// Paper example B→F: K=2 routers, 40 flits: d = 2*3 + 40 = 46.
	if got := c.UncontendedDelay(2, 40); got != 46 {
		t.Errorf("UncontendedDelay = %d, want 46", got)
	}
	// eq(6): dR = K(tr+tl) + tl = 7 for K=2.
	if got := c.RoutingDelay(2); got != 7 {
		t.Errorf("RoutingDelay = %d, want 7", got)
	}
	// eq(7): dP = tl(n-1) = 39 for 40 flits.
	if got := c.PayloadDelay(40); got != 39 {
		t.Errorf("PayloadDelay = %d, want 39", got)
	}
	if got := c.PayloadDelay(0); got != 0 {
		t.Errorf("PayloadDelay(0) = %d", got)
	}
	// eq(8) = eq(6) + eq(7).
	if c.UncontendedDelay(2, 40) != c.RoutingDelay(2)+c.PayloadDelay(40) {
		t.Error("eq(8) != eq(6)+eq(7)")
	}
}

func TestUnitConversions(t *testing.T) {
	c := Default()
	c.ClockNS = 2.5
	if got := c.CyclesToNS(4); got != 10 {
		t.Errorf("CyclesToNS = %g", got)
	}
	if got := c.CyclesToSeconds(4); got != 10e-9 {
		t.Errorf("CyclesToSeconds = %g", got)
	}
}

func TestTSVCyclesAndValidation(t *testing.T) {
	c := Default()
	if c.TSVCycles() != c.LinkCycles {
		t.Fatalf("TSVCycles default = %d, want LinkCycles %d", c.TSVCycles(), c.LinkCycles)
	}
	c.TSVLinkCycles = 3
	if c.TSVCycles() != 3 {
		t.Fatalf("TSVCycles = %d, want 3", c.TSVCycles())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("TSV config rejected: %v", err)
	}
	c.TSVLinkCycles = -1
	if err := c.Validate(); err == nil {
		t.Fatal("negative TSV cycles accepted")
	}
	for _, algo := range []topology.RoutingAlgo{topology.RouteXY, topology.RouteYX, topology.RouteXYZ, topology.RouteZYX} {
		c := Default()
		c.Routing = algo
		if err := c.Validate(); err != nil {
			t.Fatalf("%v rejected: %v", algo, err)
		}
	}
	bad := Default()
	bad.Routing = topology.RoutingAlgo(99)
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown routing accepted")
	}
}
