package topology

import (
	"fmt"
	"slices"
	"testing"
)

// TestAppendRouteMatchesRoute pins the buffer-reusing route builder
// against Route for every tile pair of a 2-D mesh, a torus (even sizes, so
// the wrap tie-break is exercised) and a 3-D grid, under every routing
// algorithm. One buffer is reused across the whole sweep behind a fixed
// prefix, so a builder that aliased or clobbered earlier contents would
// diverge; once the buffer has grown, appending a route must not
// allocate.
func TestAppendRouteMatchesRoute(t *testing.T) {
	grids := []struct {
		name  string
		build func() (*Mesh, error)
	}{
		{"mesh5x4", func() (*Mesh, error) { return NewMesh(5, 4) }},
		{"torus4x4", func() (*Mesh, error) { return NewTorus(4, 4) }},
		{"mesh3x2x3", func() (*Mesh, error) { return NewMesh3D(3, 2, 3) }},
		{"torus4x2x4", func() (*Mesh, error) { return NewTorus3D(4, 2, 4) }},
	}
	algos := []RoutingAlgo{RouteXY, RouteYX, RouteXYZ, RouteZYX, RouteFA}
	prefix := []TileID{-7, -8}
	for _, gr := range grids {
		m, err := gr.build()
		if err != nil {
			t.Fatal(err)
		}
		n := TileID(m.NumTiles())
		for _, algo := range algos {
			t.Run(fmt.Sprintf("%s/%s", gr.name, algo), func(t *testing.T) {
				buf := append([]TileID(nil), prefix...)
				for src := TileID(0); src < n; src++ {
					for dst := TileID(0); dst < n; dst++ {
						want, err := m.Route(algo, src, dst)
						if err != nil {
							t.Fatal(err)
						}
						buf, err = m.AppendRoute(buf[:len(prefix)], algo, src, dst)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(buf[:len(prefix)], prefix) {
							t.Fatalf("%d->%d: prefix clobbered: %v", src, dst, buf[:len(prefix)])
						}
						if got := buf[len(prefix):]; !slices.Equal(got, want.Tiles) {
							t.Fatalf("%d->%d: AppendRoute %v, Route %v", src, dst, got, want.Tiles)
						}
					}
				}
				allocs := testing.AllocsPerRun(20, func() {
					for src := TileID(0); src < n; src++ {
						buf, _ = m.AppendRoute(buf[:0], algo, src, n-1-src)
					}
				})
				if allocs != 0 {
					t.Fatalf("AppendRoute into a grown buffer allocates %.1f objects/sweep, want 0", allocs)
				}
			})
		}
	}
}

// TestAppendRouteInvalidEndpoint checks the error path leaves the
// caller's buffer untouched.
func TestAppendRouteInvalidEndpoint(t *testing.T) {
	m, err := NewMesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	buf := []TileID{4}
	got, err := m.AppendRoute(buf, RouteXY, 0, 9)
	if err == nil {
		t.Fatal("route to tile 9 of a 3x3 mesh accepted")
	}
	if !slices.Equal(got, buf) {
		t.Fatalf("buffer changed on error: %v", got)
	}
}
