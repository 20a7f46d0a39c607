// Package topology models the communication resource graph (CRG,
// Definition 3 of the paper): a grid of tiles, each holding one router,
// connected by directed point-to-point links. The paper evaluates a 2-D
// mesh with deterministic XY wormhole routing; torus variants, YX routing
// and stacked 3-D meshes/tori with through-silicon-via (TSV) vertical
// links are provided as extensions ("other NoC topologies can be equally
// treated"). A 2-D grid is exactly the depth-1 special case of the 3-D
// construction: NewMesh(w, h) ≡ NewMesh3D(w, h, 1), bit-identical in tile
// numbering, link enumeration and routing.
package topology

import (
	"fmt"
)

// TileID identifies one tile (router) of the NoC. Tiles are numbered
// row-major from the top-left corner of the first layer:
// tile = z*W*H + y*W + x, matching the paper's τ1..τn reading order (we
// use 0-based IDs; renderers print τ(i+1)).
type TileID int

// Coord is the (column, row, layer) position of a tile; X grows
// rightwards, Y grows downwards and Z grows into deeper layers. 2-D grids
// have Z = 0 everywhere.
type Coord struct {
	X, Y, Z int
}

// Kind distinguishes plain meshes from tori (wrap-around links).
type Kind int

const (
	// KindMesh is a plain mesh (the paper's target is the 2-D case).
	KindMesh Kind = iota
	// KindTorus adds wrap-around links in every dimension (extension).
	KindTorus
)

func (k Kind) String() string {
	if k == KindTorus {
		return "torus"
	}
	return "mesh"
}

// Mesh is a W×H×D grid of tiles. D is 1 for the paper's planar NoCs. The
// zero value is not usable; construct with NewMesh, NewTorus, NewMesh3D
// or NewTorus3D.
type Mesh struct {
	w, h, d int
	kind    Kind

	// linkIdx[from][dir] is the dense index of the directed link leaving
	// tile `from` in direction dir, or -1 if absent.
	linkIdx  [][numDirections]int
	numLinks int
	// vertLink[idx] reports whether dense link idx is a vertical (TSV)
	// link; nil on depth-1 grids, which have none.
	vertLink []bool
}

// Direction of a link leaving a tile.
type Direction int

// Directions, in enumeration order. Down/Up are the vertical (TSV)
// directions of 3-D grids: Down increases Z (deeper layer) like South
// increases Y, Up decreases it. Depth-1 grids have no vertical links, so
// 2-D link enumeration is unchanged by their existence.
const (
	East Direction = iota
	West
	South
	North
	Down
	Up

	numDirections = 6
)

func (d Direction) String() string {
	switch d {
	case East:
		return "E"
	case West:
		return "W"
	case South:
		return "S"
	case North:
		return "N"
	case Down:
		return "D"
	case Up:
		return "U"
	}
	return "?"
}

// Vertical reports whether the direction crosses layers (a TSV link).
func (d Direction) Vertical() bool { return d == Down || d == Up }

// NewMesh returns a plain W×H mesh. Both dimensions must be positive and
// the mesh must hold at least one tile.
func NewMesh(w, h int) (*Mesh, error) { return newGrid(w, h, 1, KindMesh) }

// NewTorus returns a W×H torus (wrap-around in both dimensions).
func NewTorus(w, h int) (*Mesh, error) { return newGrid(w, h, 1, KindTorus) }

// NewMesh3D returns a W×H×D mesh: D stacked W×H layers with vertical
// (TSV) links between vertically adjacent tiles. D = 1 is exactly
// NewMesh(w, h).
func NewMesh3D(w, h, d int) (*Mesh, error) { return newGrid(w, h, d, KindMesh) }

// NewTorus3D returns a W×H×D torus (wrap-around in all three dimensions).
// D = 1 is exactly NewTorus(w, h).
func NewTorus3D(w, h, d int) (*Mesh, error) { return newGrid(w, h, d, KindTorus) }

func newGrid(w, h, d int, kind Kind) (*Mesh, error) {
	if w <= 0 || h <= 0 || d <= 0 {
		return nil, fmt.Errorf("topology: invalid dimensions %dx%dx%d", w, h, d)
	}
	m := &Mesh{w: w, h: h, d: d, kind: kind}
	n := w * h * d
	m.linkIdx = make([][numDirections]int, n)
	for t := range m.linkIdx {
		m.linkIdx[t] = [numDirections]int{-1, -1, -1, -1, -1, -1}
	}
	idx := 0
	var vert []bool
	for t := 0; t < n; t++ {
		for dir := East; dir <= Up; dir++ {
			if _, ok := m.step(TileID(t), dir); ok {
				m.linkIdx[t][dir] = idx
				vert = append(vert, dir.Vertical())
				idx++
			}
		}
	}
	m.numLinks = idx
	if d > 1 {
		m.vertLink = vert
	}
	return m, nil
}

// W returns the mesh width (number of columns).
func (m *Mesh) W() int { return m.w }

// H returns the mesh height (number of rows per layer).
func (m *Mesh) H() int { return m.h }

// D returns the mesh depth (number of stacked layers; 1 for 2-D grids).
//
//nocvet:noalloc
func (m *Mesh) D() int { return m.d }

// Kind reports whether the grid is a mesh or a torus.
func (m *Mesh) Kind() Kind { return m.kind }

// NumTiles returns W*H*D, the n of Definition 3.
//
//nocvet:noalloc
func (m *Mesh) NumTiles() int { return m.w * m.h * m.d }

// NumLinks returns the number of directed inter-tile links.
func (m *Mesh) NumLinks() int { return m.numLinks }

// LinkVertical reports whether dense link idx is a vertical (TSV) link.
// Always false on depth-1 grids.
func (m *Mesh) LinkVertical(idx int) bool {
	return m.vertLink != nil && idx >= 0 && idx < len(m.vertLink) && m.vertLink[idx]
}

// Valid reports whether t is a tile of this mesh.
func (m *Mesh) Valid(t TileID) bool { return int(t) >= 0 && int(t) < m.NumTiles() }

// Coord returns the grid position of tile t.
func (m *Mesh) Coord(t TileID) Coord {
	layer := m.w * m.h
	return Coord{X: int(t) % m.w, Y: (int(t) / m.w) % m.h, Z: int(t) / layer}
}

// Tile returns the tile at position (x, y) of the first layer. Panics if
// out of range; use Valid/TileAt when the coordinates are untrusted.
func (m *Mesh) Tile(x, y int) TileID { return m.TileAt(x, y, 0) }

// TileAt returns the tile at position (x, y, z). Panics if out of range.
func (m *Mesh) TileAt(x, y, z int) TileID {
	if x < 0 || x >= m.w || y < 0 || y >= m.h || z < 0 || z >= m.d {
		panic(fmt.Sprintf("topology: tile (%d,%d,%d) outside %dx%dx%d", x, y, z, m.w, m.h, m.d))
	}
	return TileID(z*m.w*m.h + y*m.w + x)
}

// TileName returns the paper-style name of tile t: τ1..τn, row-major.
func (m *Mesh) TileName(t TileID) string { return fmt.Sprintf("t%d", int(t)+1) }

// step returns the neighbouring tile in direction d, if any.
func (m *Mesh) step(t TileID, d Direction) (TileID, bool) {
	c := m.Coord(t)
	switch d {
	case East:
		c.X++
	case West:
		c.X--
	case South:
		c.Y++
	case North:
		c.Y--
	case Down:
		c.Z++
	case Up:
		c.Z--
	}
	if m.kind == KindTorus {
		c.X = (c.X + m.w) % m.w
		c.Y = (c.Y + m.h) % m.h
		c.Z = (c.Z + m.d) % m.d
		if nt := m.TileAt(c.X, c.Y, c.Z); nt != t { // a 1-wide torus has no self links
			return nt, true
		}
		return 0, false
	}
	if c.X < 0 || c.X >= m.w || c.Y < 0 || c.Y >= m.h || c.Z < 0 || c.Z >= m.d {
		return 0, false
	}
	return m.TileAt(c.X, c.Y, c.Z), true
}

// Neighbor returns the tile reached from t in direction d, if the link
// exists.
func (m *Mesh) Neighbor(t TileID, d Direction) (TileID, bool) { return m.step(t, d) }

// LinkIndex returns the dense index in [0, NumLinks) of the directed link
// from tile `from` to the adjacent tile `to`. ok is false if the tiles are
// not adjacent.
func (m *Mesh) LinkIndex(from, to TileID) (int, bool) {
	if !m.Valid(from) || !m.Valid(to) {
		return 0, false
	}
	for d := East; d <= Up; d++ {
		if nt, ok := m.step(from, d); ok && nt == to {
			return m.linkIdx[from][d], true
		}
	}
	return 0, false
}

// LinkEnds returns, for a dense link index, its (from, to) tile pair.
// It is the inverse of LinkIndex and is O(NumLinks); intended for
// reporting, not hot paths.
func (m *Mesh) LinkEnds(idx int) (from, to TileID, ok bool) {
	for t := 0; t < m.NumTiles(); t++ {
		for d := East; d <= Up; d++ {
			if m.linkIdx[t][d] == idx {
				nt, _ := m.step(TileID(t), d)
				return TileID(t), nt, true
			}
		}
	}
	return 0, 0, false
}

// dimDist returns the minimal offset magnitude along one dimension of the
// given size, using the wrap-around shortcut on a torus.
func (m *Mesh) dimDist(a, b, size int) int {
	d := abs(a - b)
	if m.kind == KindTorus {
		if wrapped := size - d; wrapped < d {
			d = wrapped
		}
	}
	return d
}

// MinHops returns the minimum number of inter-tile links between two tiles
// (Manhattan distance across all dimensions, with wrap-around shortcuts on
// a torus).
func (m *Mesh) MinHops(a, b TileID) int {
	ca, cb := m.Coord(a), m.Coord(b)
	return m.dimDist(ca.X, cb.X, m.w) + m.dimDist(ca.Y, cb.Y, m.h) + m.dimDist(ca.Z, cb.Z, m.d)
}

// VerticalHops returns the number of vertical (TSV) links on any minimal
// dimension-ordered route between two tiles: the Z distance, with the
// wrap-around shortcut on a torus. It is symmetric in its arguments and
// zero on depth-1 grids — the invariant the CWM evaluator's TSV traffic
// aggregate relies on.
func (m *Mesh) VerticalHops(a, b TileID) int {
	if m.d == 1 {
		return 0
	}
	layer := m.w * m.h
	return m.dimDist(int(a)/layer, int(b)/layer, m.d)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
