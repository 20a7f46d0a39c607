// Package graph provides small directed-graph utilities used by the
// application models: topological sorting, cycle detection, reachability
// and weighted critical-path computation on DAGs.
//
// Nodes are dense integers in [0, N). The package is deliberately minimal:
// it exists so that the CDCG (communication dependence and computation
// graph) of package model can be validated and analysed without pulling in
// any external dependency.
package graph

import (
	"errors"
	"fmt"
)

// ErrCycle is returned by operations that require a DAG when the graph
// contains a directed cycle.
var ErrCycle = errors.New("graph: directed cycle detected")

// Digraph is a directed graph over nodes 0..N-1 with adjacency lists.
// The zero value is an empty graph with no nodes; use New to create a
// graph with a fixed node count.
type Digraph struct {
	adj   [][]int
	indeg []int
}

// New returns a directed graph with n nodes and no edges.
func New(n int) *Digraph {
	if n < 0 {
		n = 0
	}
	return &Digraph{adj: make([][]int, n), indeg: make([]int, n)}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return len(g.adj) }

// AddEdge inserts the directed edge u->v. It returns an error if either
// endpoint is out of range or if u == v (self loops are never meaningful
// for dependence graphs). Parallel edges are tolerated but collapse to a
// single logical dependence.
func (g *Digraph) AddEdge(u, v int) error {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.adj))
	}
	if u == v {
		return fmt.Errorf("graph: self loop on node %d", u)
	}
	g.adj[u] = append(g.adj[u], v)
	g.indeg[v]++
	return nil
}

// Succ returns the successors of u. The returned slice is owned by the
// graph and must not be modified.
//
//nocvet:noalloc
func (g *Digraph) Succ(u int) []int { return g.adj[u] }

// InDegree returns the number of edges entering u.
//
//nocvet:noalloc
func (g *Digraph) InDegree(u int) int { return g.indeg[u] }

// Sources returns all nodes with no incoming edges, in increasing order.
func (g *Digraph) Sources() []int {
	var s []int
	for v := range g.adj {
		if g.indeg[v] == 0 {
			s = append(s, v)
		}
	}
	return s
}

// Sinks returns all nodes with no outgoing edges, in increasing order.
func (g *Digraph) Sinks() []int {
	var s []int
	for v := range g.adj {
		if len(g.adj[v]) == 0 {
			s = append(s, v)
		}
	}
	return s
}

// TopoSort returns a topological order of the nodes, or ErrCycle if the
// graph is not a DAG. The order is deterministic: among ready nodes the
// smallest index is emitted first (Kahn's algorithm with an index-ordered
// frontier), so repeated runs over the same graph agree.
func (g *Digraph) TopoSort() ([]int, error) {
	n := len(g.adj)
	indeg := append([]int(nil), g.indeg...)
	// Min-heap over node indices keeps the order deterministic.
	h := &intHeap{}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			h.push(v)
		}
	}
	order := make([]int, 0, n)
	for h.len() > 0 {
		v := h.pop()
		order = append(order, v)
		for _, w := range g.adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				h.push(w)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// HasCycle reports whether the graph contains a directed cycle.
func (g *Digraph) HasCycle() bool {
	_, err := g.TopoSort()
	return err != nil
}

// Reachable returns a boolean slice r where r[v] is true iff v is
// reachable from `from` (including from itself).
func (g *Digraph) Reachable(from int) []bool {
	r := make([]bool, len(g.adj))
	if from < 0 || from >= len(g.adj) {
		return r
	}
	stack := []int{from}
	r[from] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if !r[w] {
				r[w] = true
				stack = append(stack, w)
			}
		}
	}
	return r
}

// LongestPath computes, for a DAG, the maximum total node weight over any
// directed path, where weight(v) gives the non-negative weight of node v.
// Edge weights are zero. It returns ErrCycle for cyclic graphs. An empty
// graph has longest path 0.
func (g *Digraph) LongestPath(weight func(v int) int64) (int64, error) {
	order, err := g.TopoSort()
	if err != nil {
		return 0, err
	}
	dist := make([]int64, len(g.adj))
	var best int64
	for _, v := range order {
		d := dist[v] + weight(v)
		if d > best {
			best = d
		}
		for _, w := range g.adj[v] {
			if d > dist[w] {
				dist[w] = d
			}
		}
	}
	return best, nil
}

// intHeap is a tiny binary min-heap of ints; container/heap's interface
// indirection is not worth it for this internal helper.
type intHeap struct{ a []int }

func (h *intHeap) len() int { return len(h.a) }

func (h *intHeap) push(x int) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h.a) && h.a[l] < h.a[m] {
			m = l
		}
		if r < len(h.a) && h.a[r] < h.a[m] {
			m = r
		}
		if m == i {
			break
		}
		h.a[i], h.a[m] = h.a[m], h.a[i]
		i = m
	}
	return top
}
