package wormhole

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/noc"
	"repro/internal/topology"
)

// TestHopTableSize pins the memory contract of the route table: one hop
// descriptor per router of every route, each no wider than the tile ID a
// plain tile table would store, so the descriptor table is never larger
// than the tile table it replaced.
func TestHopTableSize(t *testing.T) {
	if unsafe.Sizeof(hop{}) > unsafe.Sizeof(topology.TileID(0)) {
		t.Skipf("tile IDs are %d bytes on this platform, hops %d",
			unsafe.Sizeof(topology.TileID(0)), unsafe.Sizeof(hop{}))
	}
	rng := rand.New(rand.NewSource(5))
	for _, mesh := range scratchMeshes(t) {
		g := randomValidCDCG(rng, 6, 20)
		s, err := NewSimulator(mesh, noc.Default(), g)
		if err != nil {
			t.Fatal(err)
		}
		routers := 0
		n := topology.TileID(mesh.NumTiles())
		for a := topology.TileID(0); a < n; a++ {
			for b := topology.TileID(0); b < n; b++ {
				r, err := mesh.Route(noc.Default().Routing, a, b)
				if err != nil {
					t.Fatal(err)
				}
				routers += r.K()
			}
		}
		if len(s.routes) != routers || cap(s.routes) != routers {
			t.Fatalf("%dx%dx%d: hop table len %d cap %d, want %d descriptors",
				mesh.W(), mesh.H(), mesh.D(), len(s.routes), cap(s.routes), routers)
		}
	}
}
