package wormhole

import (
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
)

// vertApp is a two-core application with one 4-bit packet A→B.
func vertApp() *model.CDCG {
	return &model.CDCG{
		Name:    "vert",
		Cores:   []model.Core{{ID: 0, Name: "A"}, {ID: 1, Name: "B"}},
		Packets: []model.Packet{{ID: 0, Src: 0, Dst: 1, Compute: 0, Bits: 4}},
	}
}

// TestSim3DTSVLatency pins the vertical-hop timing: a packet crossing one
// TSV link pays the TSV per-flit rate on that hop (and on the output port
// feeding it), while core links and horizontal hops keep tl.
//
// With tr=2, tl=1 and a 4-flit packet from (0,0,0) to (0,0,1):
//
//	core-out [0,4], header at router 0 at t=1, routing done t=3,
//	TSV link crossed by the header at t=3+tlv, router 1 done at
//	t=3+tlv+2, delivery 4 cycles later.
//
// So delivered = 9+tlv: 10 with tlv = tl = 1, 12 with tlv = 3.
func TestSim3DTSVLatency(t *testing.T) {
	mesh, err := topology.NewMesh3D(2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := vertApp()
	mp := mapping.Mapping{mesh.TileAt(0, 0, 0), mesh.TileAt(0, 0, 1)}
	for _, tc := range []struct {
		tsvCycles int64
		delivered int64
	}{
		{0, 10}, // 0 = same as LinkCycles
		{1, 10},
		{3, 12},
	} {
		cfg := noc.Default()
		cfg.TSVLinkCycles = tc.tsvCycles
		sim, err := NewSimulator(mesh, cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(mp)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExecCycles != tc.delivered {
			t.Fatalf("tsv=%d: delivered at %d, want %d", tc.tsvCycles, res.ExecCycles, tc.delivered)
		}
		if res.Traffic.TSVBits != 4 {
			t.Fatalf("tsv=%d: TSVBits = %d, want 4", tc.tsvCycles, res.Traffic.TSVBits)
		}
		if lb := res.Traffic.LinkBits; lb != 4 {
			t.Fatalf("tsv=%d: total link bits %d, want 4 (one hop)", tc.tsvCycles, lb)
		}
	}
}

// TestSim3DTSVPortContention checks vertical output ports arbitrate like
// planar ones: two packets descending through the same router serialise on
// its Down port.
func TestSim3DTSVPortContention(t *testing.T) {
	mesh, err := topology.NewMesh3D(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Cores A,B on layer 0 of column (0,0)/(0,1); C on layer 1 below A.
	// Both packets route (0,1,0)->(0,0,0)->(0,0,1) under YX? No: A at
	// (0,0,0) sends to C directly; B at (0,1,0) routes via A's router.
	g := &model.CDCG{
		Name: "contend",
		Cores: []model.Core{
			{ID: 0, Name: "A"}, {ID: 1, Name: "B"}, {ID: 2, Name: "C"},
		},
		Packets: []model.Packet{
			{ID: 0, Src: 0, Dst: 2, Compute: 0, Bits: 4},
			{ID: 1, Src: 1, Dst: 2, Compute: 0, Bits: 4},
		},
	}
	mp := mapping.Mapping{mesh.TileAt(0, 0, 0), mesh.TileAt(0, 1, 0), mesh.TileAt(0, 0, 1)}
	sim, err := NewSimulator(mesh, noc.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(mp)
	if err != nil {
		t.Fatal(err)
	}
	// Both packets need router (0,0,0)'s Down port; the later header
	// stalls, so total contention must be positive and the two deliveries
	// must not coincide.
	if res.TotalContention <= 0 {
		t.Fatalf("no contention recorded on a shared TSV port (total %d)", res.TotalContention)
	}
	if res.Packets[0].Delivered == res.Packets[1].Delivered {
		t.Fatalf("both packets delivered at %d despite sharing a TSV port", res.Packets[0].Delivered)
	}
	if res.Traffic.TSVBits != 8 {
		t.Fatalf("TSVBits = %d, want 8", res.Traffic.TSVBits)
	}
}

// TestSim2DNoTSVTraffic pins the planar invariant: depth-1 runs never
// report vertical traffic.
func TestSim2DNoTSVTraffic(t *testing.T) {
	mesh, err := topology.NewMesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(mesh, noc.Default(), vertApp())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(mapping.Mapping{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic.TSVBits != 0 {
		t.Fatalf("2D run reports %d TSV bits", res.Traffic.TSVBits)
	}
}
