package wormhole

import (
	"math/rand"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
)

// The simulator is topology-agnostic ("other NoC topologies can be
// equally treated"): the same CDCG runs on a torus, where wrap links
// shorten routes and therefore delivery times.
func TestSimulateOnTorus(t *testing.T) {
	g := &model.CDCG{
		Cores: model.MakeCores(2, "a", "b"),
		Packets: []model.Packet{
			{ID: 0, Src: 0, Dst: 1, Compute: 5, Bits: 10},
		},
	}
	cfg := noc.Default()

	mesh, err := topology.NewMesh(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	simM, err := NewSimulator(mesh, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	// Cores at opposite row ends: 3 hops on the mesh...
	resM, err := simM.Run(mapping.Mapping{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	// K=4 routers: 5 + 4*3 + 10 = 27.
	if resM.ExecCycles != 27 {
		t.Fatalf("mesh texec = %d, want 27", resM.ExecCycles)
	}

	torus, err := topology.NewTorus(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	simT, err := NewSimulator(torus, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	// ...but one wrap hop on the torus: K=2: 5 + 2*3 + 10 = 21.
	resT, err := simT.Run(mapping.Mapping{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if resT.ExecCycles != 21 {
		t.Fatalf("torus texec = %d, want 21", resT.ExecCycles)
	}
}

// YX routing produces valid, deterministic schedules with the same
// uncontended delay structure as XY.
func TestSimulateYXRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mesh, _ := topology.NewMesh(3, 3)
	g := randomValidCDCG(rng, 6, 25)
	cfgYX := noc.Default()
	cfgYX.Routing = topology.RouteYX
	sim, err := NewSimulator(mesh, cfgYX, g)
	if err != nil {
		t.Fatal(err)
	}
	mp, _ := mapping.Random(rng, 6, 9)
	res, err := sim.Run(mp)
	if err != nil {
		t.Fatal(err)
	}
	for i, ps := range res.Packets {
		min := cfgYX.UncontendedDelay(ps.K, ps.Flits)
		if ps.Delivered-ps.Start != min+ps.Contention {
			t.Fatalf("packet %d: delay decomposition broken under YX", i)
		}
		// K must match the YX route.
		r, _ := mesh.Route(topology.RouteYX, mp[g.Packets[i].Src], mp[g.Packets[i].Dst])
		if ps.K != r.K() {
			t.Fatalf("packet %d: K=%d, YX route K=%d", i, ps.K, r.K())
		}
	}
	again, err := sim.Run(mp)
	if err != nil {
		t.Fatal(err)
	}
	if again.ExecCycles != res.ExecCycles {
		t.Fatal("YX runs nondeterministic")
	}
}

// Torus wrap ports arbitrate like any other: two packets forced through
// the same wrap link serialise.
func TestTorusWrapPortContention(t *testing.T) {
	torus, _ := topology.NewTorus(3, 1)
	g := &model.CDCG{
		Cores: model.MakeCores(3, "a", "b", "c"),
		Packets: []model.Packet{
			{ID: 0, Src: 0, Dst: 1, Compute: 0, Bits: 20},
			{ID: 1, Src: 2, Dst: 1, Compute: 0, Bits: 20},
		},
	}
	cfg := noc.Default()
	sim, err := NewSimulator(torus, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	// a@t0, b@t2, c@t1: packet0 routes 0->2 westwards (wrap, 1 hop);
	// packet1 routes 1->2 eastwards (1 hop): disjoint links, no
	// contention.
	res, err := sim.Run(mapping.Mapping{0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalContention != 0 {
		t.Fatalf("disjoint wrap routes contend: %+v", res.Packets)
	}
}
