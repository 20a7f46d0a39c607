package topology

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
)

// ErrUnreachable reports that a fault set partitions the grid between a
// route's source and destination: no path exists that avoids every failed
// link and router. It is a sentinel — callers test it with errors.Is and
// score the pair with a documented penalty instead of aborting.
var ErrUnreachable = errors.New("topology: destination unreachable under fault set")

// FaultSet is a set of failed NoC elements — links (including vertical
// TSV links) and routers — layered over one Mesh. It is pure data: the
// mesh itself is never mutated, so intact fast paths (Route, LinkIndex,
// the wormhole route table built without faults) are untouched by the
// existence of fault sets. Link failures are bidirectional: failing the
// a→b link always fails b→a too, which is what keeps fault-aware routing
// symmetric (K(a,b) == K(b,a), the invariant the delta evaluators and
// property tests rely on).
//
// A FaultSet is built once (explicit Fail* calls or GenerateFaults) and
// read-only afterwards; readers may share it across goroutines.
type FaultSet struct {
	m      *Mesh
	link   []bool // dense directed link index → failed
	router []bool // tile → failed

	failedPairs   int // bidirectional link pairs failed
	failedRouters int
}

// NewFaultSet returns an empty fault set over m.
func NewFaultSet(m *Mesh) *FaultSet {
	return &FaultSet{
		m:      m,
		link:   make([]bool, m.NumLinks()),
		router: make([]bool, m.NumTiles()),
	}
}

// Empty reports whether no element is failed. A nil *FaultSet is empty:
// every fault-aware entry point treats nil and empty identically as "the
// intact grid".
func (f *FaultSet) Empty() bool {
	return f == nil || (f.failedPairs == 0 && f.failedRouters == 0)
}

// NumFailed returns the failed element count: bidirectional link pairs
// plus routers.
func (f *FaultSet) NumFailed() int {
	if f == nil {
		return 0
	}
	return f.failedPairs + f.failedRouters
}

// FailLink fails the bidirectional link between adjacent tiles a and b
// (both directed links). On a 2-size torus dimension two parallel links
// join the same tile pair (the direct hop and the wrap); they fail
// together as one pair — LinkIndex cannot tell them apart, so a route
// "between a and b" must not survive on the parallel edge. FailLink is
// idempotent and errors if the tiles are not adjacent.
func (f *FaultSet) FailLink(a, b TileID) error {
	if !f.m.Valid(a) || !f.m.Valid(b) {
		return fmt.Errorf("topology: tiles %d and %d outside %dx%dx%d %s", a, b, f.m.w, f.m.h, f.m.d, f.m.kind)
	}
	adjacent, fresh := false, false
	for dir := East; dir <= Up; dir++ {
		if nt, ok := f.m.step(a, dir); ok && nt == b {
			li := f.m.linkIdx[a][dir]
			adjacent = true
			fresh = fresh || !f.link[li]
			f.link[li] = true
		}
		if nt, ok := f.m.step(b, dir); ok && nt == a {
			li := f.m.linkIdx[b][dir]
			fresh = fresh || !f.link[li]
			f.link[li] = true
		}
	}
	if !adjacent {
		return fmt.Errorf("topology: tiles %d and %d are not adjacent", a, b)
	}
	if fresh {
		f.failedPairs++
	}
	return nil
}

// FailTSV fails the bidirectional vertical (TSV) link between a and b.
// It errors when the tiles are not vertically adjacent.
func (f *FaultSet) FailTSV(a, b TileID) error {
	la, ok := f.m.LinkIndex(a, b)
	if !ok || !f.m.LinkVertical(la) {
		return fmt.Errorf("topology: tiles %d and %d are not joined by a TSV link", a, b)
	}
	return f.FailLink(a, b)
}

// FailRouter fails the router of tile t: no route may start at, end at,
// or pass through it. It is idempotent and errors on an invalid tile.
func (f *FaultSet) FailRouter(t TileID) error {
	if !f.m.Valid(t) {
		return fmt.Errorf("topology: tile %d outside %dx%dx%d %s", t, f.m.w, f.m.h, f.m.d, f.m.kind)
	}
	if !f.router[t] {
		f.failedRouters++
	}
	f.router[t] = true
	return nil
}

// LinkFailed reports whether dense directed link idx is failed.
func (f *FaultSet) LinkFailed(idx int) bool {
	return f != nil && idx >= 0 && idx < len(f.link) && f.link[idx]
}

// RouterFailed reports whether tile t's router is failed.
func (f *FaultSet) RouterFailed(t TileID) bool {
	return f != nil && f.m.Valid(t) && f.router[t]
}

// FaultElement describes one failed element for enumeration: either a
// router or a bidirectional link pair (From < To canonically; TSV marks
// vertical links).
type FaultElement struct {
	IsRouter bool
	Router   TileID
	From, To TileID
	TSV      bool
}

// String renders the element canonically: "router 5", "link 1-2",
// "tsv 3-19" (0-based tile IDs, matching the service JSON).
func (e FaultElement) String() string {
	switch {
	case e.IsRouter:
		return fmt.Sprintf("router %d", e.Router)
	case e.TSV:
		return fmt.Sprintf("tsv %d-%d", e.From, e.To)
	}
	return fmt.Sprintf("link %d-%d", e.From, e.To)
}

// Elements enumerates the failed elements in canonical deterministic
// order: routers by ascending tile ID, then link pairs in grid
// enumeration order (ascending tile, then direction). This is the order
// the resilience objective builds its single-fault scenarios in, so the
// per-fault breakdown is stable for a given fault set.
func (f *FaultSet) Elements() []FaultElement {
	if f.Empty() {
		return nil
	}
	var out []FaultElement
	for t := range f.router {
		if f.router[t] {
			out = append(out, FaultElement{IsRouter: true, Router: TileID(t)})
		}
	}
	seen := make(map[[2]TileID]bool)
	for t := 0; t < f.m.NumTiles(); t++ {
		for dir := East; dir <= Up; dir++ {
			li := f.m.linkIdx[t][dir]
			if li < 0 || !f.link[li] {
				continue
			}
			nt, _ := f.m.step(TileID(t), dir)
			a, b := TileID(t), nt
			if a > b {
				a, b = b, a
			}
			if seen[[2]TileID{a, b}] {
				continue
			}
			seen[[2]TileID{a, b}] = true
			out = append(out, FaultElement{From: a, To: b, TSV: dir.Vertical()})
		}
	}
	return out
}

// Singleton returns a new fault set over the same mesh holding only the
// given element — the building block of single-fault resilience
// scenarios.
func (f *FaultSet) Singleton(e FaultElement) (*FaultSet, error) {
	s := NewFaultSet(f.m)
	if e.IsRouter {
		return s, s.FailRouter(e.Router)
	}
	return s, s.FailLink(e.From, e.To)
}

// Key returns the canonical string form of the fault set — element
// strings in Elements order joined by commas, empty for a nil/empty set.
// The service embeds it in the instance cache key.
func (f *FaultSet) Key() string {
	els := f.Elements()
	if len(els) == 0 {
		return ""
	}
	parts := make([]string, len(els))
	for i, e := range els {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// GenerateFaults draws a deterministic random fault set: every
// bidirectional link pair of the mesh (vertical TSV pairs included) fails
// independently with probability rate, in canonical grid enumeration
// order under math/rand with the given seed — so (mesh, rate, seed)
// always yields the same set. Routers are never failed here; fail them
// explicitly with FailRouter. rate must lie in [0, 1); rate 0 returns an
// empty set.
func GenerateFaults(m *Mesh, rate float64, seed int64) (*FaultSet, error) {
	if rate < 0 || rate >= 1 {
		return nil, fmt.Errorf("topology: fault rate %g outside [0, 1)", rate)
	}
	fs := NewFaultSet(m)
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]TileID]bool)
	for t := 0; t < m.NumTiles(); t++ {
		for dir := East; dir <= Up; dir++ {
			nt, ok := m.step(TileID(t), dir)
			if !ok {
				continue
			}
			a, b := TileID(t), nt
			if a > b {
				a, b = b, a
			}
			if seen[[2]TileID{a, b}] {
				continue
			}
			seen[[2]TileID{a, b}] = true
			if rng.Float64() < rate {
				if err := fs.FailLink(a, b); err != nil {
					return nil, err
				}
			}
		}
	}
	return fs, nil
}

// RouteFault computes the deterministic fault-avoiding path from src to
// dst. With a nil or empty fault set it returns exactly Route(algo, src,
// dst) — bit-identical to the intact path, so fault-aware entry points
// cost nothing when no faults are configured.
//
// With faults, the route is chosen in three deterministic stages:
//
//  1. If the dimension-ordered route is fault-free in both directions
//     (src→dst and dst→src), it is returned unchanged. Checking both
//     directions keeps the rule symmetric: either both endpoints keep
//     their minimal dimension-ordered routes or both fall back together,
//     which preserves K-symmetry under bidirectional faults.
//  2. Otherwise a negative-first turn-restricted breadth-first search
//     (Glass & Ni: every West/North/Up hop precedes the first
//     East/South/Down hop) finds the shortest restricted path, visiting
//     neighbours in fixed East..Up order so the result is unique. The
//     negative-first turn model is deadlock-free on meshes; the reversal
//     of a legal path is legal, so restricted path lengths are symmetric
//     too.
//  3. If the turn restriction blocks every path but the grid is still
//     connected, an unrestricted BFS supplies the route. Such detours
//     escape the turn model, so deadlock freedom is no longer
//     guaranteed by construction — the simulator remains safe because
//     routes are precomputed per packet, but hardware adopting such a
//     table would need virtual channels. This caveat also covers tori,
//     where wrap links escape any pure turn model.
//
// If no path exists at all, RouteFault returns ErrUnreachable; callers
// score the pair with a penalty. Routes never start at, end at, or
// traverse a failed router, and never cross a failed link (property
// tested).
func (m *Mesh) RouteFault(algo RoutingAlgo, fs *FaultSet, src, dst TileID) (Route, error) {
	if fs.Empty() {
		return m.Route(algo, src, dst)
	}
	if fs.m != m {
		return Route{}, fmt.Errorf("topology: fault set belongs to a different mesh")
	}
	if !m.Valid(src) || !m.Valid(dst) {
		return Route{}, fmt.Errorf("topology: route endpoints %d->%d outside %dx%dx%d %s",
			src, dst, m.w, m.h, m.d, m.kind)
	}
	if fs.RouterFailed(src) || fs.RouterFailed(dst) {
		return Route{}, ErrUnreachable
	}
	if src == dst {
		return Route{Tiles: []TileID{src}}, nil
	}
	fwd, err := m.Route(algo, src, dst)
	if err != nil {
		return Route{}, err
	}
	rev, err := m.Route(algo, dst, src)
	if err != nil {
		return Route{}, err
	}
	if fs.routeClean(fwd) && fs.routeClean(rev) {
		return fwd, nil
	}
	if tiles, ok := fs.bfs(src, dst, true); ok {
		return Route{Tiles: tiles}, nil
	}
	if tiles, ok := fs.bfs(src, dst, false); ok {
		return Route{Tiles: tiles}, nil
	}
	return Route{}, ErrUnreachable
}

// routeClean reports whether r avoids every failed link and every failed
// intermediate router (endpoints are checked by the caller).
func (f *FaultSet) routeClean(r Route) bool {
	for i := 1; i < len(r.Tiles); i++ {
		if i < len(r.Tiles)-1 && f.router[r.Tiles[i]] {
			return false
		}
		li, ok := f.m.LinkIndex(r.Tiles[i-1], r.Tiles[i])
		if !ok || f.link[li] {
			return false
		}
	}
	return true
}

// bfs finds the shortest fault-free path from src to dst, deterministic
// by construction (FIFO queue, neighbours visited in East..Up order).
// When restricted, the negative-first turn model applies: the state space
// is (tile, phase) where phase 1 means a positive hop (East/South/Down)
// has been taken, after which negative hops (West/North/Up) are
// forbidden.
func (f *FaultSet) bfs(src, dst TileID, restricted bool) ([]TileID, bool) {
	n := f.m.NumTiles()
	// State encoding: tile + phase*n. Unrestricted search uses phase 0 only.
	visited := make([]bool, 2*n)
	parent := make([]int32, 2*n)
	for i := range parent {
		parent[i] = -1
	}
	queue := make([]int32, 0, n)
	start := int32(src)
	visited[start] = true
	queue = append(queue, start)
	goal := int32(-1)
	for qi := 0; qi < len(queue) && goal < 0; qi++ {
		state := queue[qi]
		tile := TileID(int(state) % n)
		phase := int(state) / n
		for dir := East; dir <= Up; dir++ {
			li := f.m.linkIdx[tile][dir]
			if li < 0 || f.link[li] {
				continue
			}
			nt, _ := f.m.step(tile, dir)
			if f.router[nt] {
				continue
			}
			np := phase
			if restricted {
				switch dir {
				case East, South, Down:
					np = 1
				default:
					if phase == 1 {
						continue // negative hop after a positive one
					}
				}
			}
			ns := int32(int(nt) + np*n)
			if visited[ns] {
				continue
			}
			visited[ns] = true
			parent[ns] = state
			if nt == dst {
				goal = ns
				break
			}
			queue = append(queue, ns)
		}
	}
	if goal < 0 {
		return nil, false
	}
	var rev []TileID
	for s := goal; s >= 0; s = parent[s] {
		rev = append(rev, TileID(int(s)%n))
	}
	tiles := make([]TileID, len(rev))
	for i, t := range rev {
		tiles[len(rev)-1-i] = t
	}
	return tiles, true
}
