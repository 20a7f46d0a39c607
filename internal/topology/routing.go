package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseGridSpec parses a "WxH" or "WxHxD" grid specification (lower- or
// upper-case 'x' separators) into its dimensions; D defaults to 1 for
// planar specs. Every dimension must be a bare positive integer —
// trailing garbage ("4x4junk", "2x2x4.5") is rejected, not truncated.
// Both CLIs share this parser so the spec grammar cannot drift between
// them.
func ParseGridSpec(spec string) (w, h, d int, err error) {
	parts := strings.Split(strings.ToLower(spec), "x")
	if len(parts) != 2 && len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("topology: grid spec %q is not WxH or WxHxD", spec)
	}
	d = 1
	dims := []*int{&w, &h, &d}
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v <= 0 {
			return 0, 0, 0, fmt.Errorf("topology: grid dimension %q is not a positive integer", p)
		}
		*dims[i] = v
	}
	return w, h, d, nil
}

// RoutingAlgo selects the deterministic routing function. The paper uses
// XY (route fully in the X dimension, then in Y); the other orders are
// symmetric extensions. All are minimal, dimension-ordered and
// deadlock-free on a mesh. On 3-D grids every algorithm resolves the
// remaining dimensions in its stated order, with unstated dimensions
// last: XY and XYZ route X, then Y, then Z (so they coincide on every
// grid, and on depth-1 grids Z is vacuous); YX routes Y, X, Z; ZYX routes
// Z, Y, X.
type RoutingAlgo int

const (
	// RouteXY resolves the X offset first, then Y, then Z (the paper's
	// choice; Z is vacuous on 2-D grids).
	RouteXY RoutingAlgo = iota
	// RouteYX resolves the Y offset first, then X, then Z.
	RouteYX
	// RouteXYZ is the canonical 3-D name for X-then-Y-then-Z routing; it
	// routes identically to RouteXY on every grid.
	RouteXYZ
	// RouteZYX resolves the Z offset first (TSV hops up front), then Y,
	// then X.
	RouteZYX
	// RouteFA is fault-aware routing: identical to RouteXY on an intact
	// grid, but when paired with a FaultSet (Mesh.RouteFault,
	// wormhole.NewSimulatorFaults) it detours around failed links and
	// routers via negative-first turn-restricted search. See RouteFault.
	RouteFA
)

// axis identifies one routing dimension.
type axis int

const (
	axisX axis = iota
	axisY
	axisZ
)

// order returns the dimension resolution order of the algorithm.
func (r RoutingAlgo) order() [3]axis {
	switch r {
	case RouteYX:
		return [3]axis{axisY, axisX, axisZ}
	case RouteZYX:
		return [3]axis{axisZ, axisY, axisX}
	}
	return [3]axis{axisX, axisY, axisZ} // RouteXY, RouteXYZ
}

func (r RoutingAlgo) String() string {
	switch r {
	case RouteYX:
		return "YX"
	case RouteXYZ:
		return "XYZ"
	case RouteZYX:
		return "ZYX"
	case RouteFA:
		return "FA"
	}
	return "XY"
}

// ParseRoutingAlgo converts "xy"/"yx"/"xyz"/"zyx"/"fa" (case-insensitive)
// to a RoutingAlgo.
func ParseRoutingAlgo(s string) (RoutingAlgo, error) {
	switch strings.ToLower(s) {
	case "xy":
		return RouteXY, nil
	case "yx":
		return RouteYX, nil
	case "xyz":
		return RouteXYZ, nil
	case "zyx":
		return RouteZYX, nil
	case "fa":
		return RouteFA, nil
	}
	return 0, fmt.Errorf("topology: unknown routing algorithm %q", s)
}

// Route is the ordered list of routers a packet traverses from source tile
// to destination tile, both inclusive. K = len(Tiles) is the router count
// of equations (2) and (6)-(8); the packet additionally crosses K-1
// inter-tile links plus the two core↔router links at the end points.
type Route struct {
	Tiles []TileID
}

// K returns the number of routers traversed.
func (r Route) K() int { return len(r.Tiles) }

// Hops returns the number of inter-tile links traversed (K-1).
func (r Route) Hops() int {
	if len(r.Tiles) == 0 {
		return 0
	}
	return len(r.Tiles) - 1
}

// Route computes the deterministic path from src to dst under the given
// algorithm. On a torus each dimension takes its shortest wrap direction;
// when an even-size dimension offers two equally short directions the tie
// breaks towards the positive one (East, South, Down). The result always
// starts at src and ends at dst; for src == dst it is the single-router
// route. RouteFA routes exactly like RouteXY here; its fault-avoiding
// behaviour only engages through RouteFault with a non-empty FaultSet.
func (m *Mesh) Route(algo RoutingAlgo, src, dst TileID) (Route, error) {
	tiles, err := m.AppendRoute(nil, algo, src, dst)
	if err != nil {
		return Route{}, err
	}
	return Route{Tiles: tiles}, nil
}

// AppendRoute appends the routers of Route(algo, src, dst) to buf and
// returns the extended slice. Callers that build many routes (route
// tables) pass a reused buffer, so the walk
// allocates nothing once the buffer has grown to the longest route. On
// error buf is returned unchanged.
func (m *Mesh) AppendRoute(buf []TileID, algo RoutingAlgo, src, dst TileID) ([]TileID, error) {
	if !m.Valid(src) || !m.Valid(dst) {
		return buf, fmt.Errorf("topology: route endpoints %d->%d outside %dx%dx%d %s",
			src, dst, m.w, m.h, m.d, m.kind)
	}
	buf = append(buf, src)
	cur := src
	dc := m.Coord(dst)
	torus := m.kind == KindTorus
	for _, ax := range algo.order() {
		target, size := dc.X, m.w
		switch ax {
		case axisY:
			target, size = dc.Y, m.h
		case axisZ:
			target, size = dc.Z, m.d
		}
		for {
			c := m.Coord(cur)
			pos := c.X
			switch ax {
			case axisY:
				pos = c.Y
			case axisZ:
				pos = c.Z
			}
			if pos == target {
				break
			}
			nt, ok := m.step(cur, chooseDir(pos, target, size, torus, ax))
			if !ok {
				// Unreachable on well-formed grids; guard keeps the loop finite.
				break
			}
			cur = nt
			buf = append(buf, cur)
		}
	}
	return buf, nil
}

// chooseDir picks the direction that moves pos towards target in a
// dimension of the given size, using wrap-around when beneficial on a
// torus.
func chooseDir(pos, target, size int, torus bool, ax axis) Direction {
	fwd := target - pos // positive means East (or South, or Down)
	if torus {
		alt := fwd
		if fwd > 0 {
			alt = fwd - size
		} else {
			alt = fwd + size
		}
		// On even-size dimensions the two wrap directions can tie; the
		// documented tie-break is towards the positive direction (East,
		// South, Down), so a tying positive alternative replaces a
		// negative fwd but never the other way round.
		if abs(alt) < abs(fwd) || (abs(alt) == abs(fwd) && alt > 0) {
			fwd = alt
		}
	}
	switch ax {
	case axisX:
		if fwd > 0 {
			return East
		}
		return West
	case axisZ:
		if fwd > 0 {
			return Down
		}
		return Up
	}
	if fwd > 0 {
		return South
	}
	return North
}
