// Package model defines the application models of the paper:
//
//   - CWG  — communication weighted graph (Definition 1): cores as
//     vertices, aggregate communicated bit volumes as edge weights.
//     Equivalent to the APCG of Hu/Marculescu and the core graph of
//     Murali/De Micheli.
//   - CDCG — communication dependence and computation graph
//     (Definition 2): one vertex per packet, annotated with the source
//     core's computation time and the packet's bit volume, plus dependence
//     edges and the implicit Start/End vertices.
//
// A CDCG can always be projected onto its CWG (volume aggregation); the
// reverse is impossible, which is precisely the information gap the paper
// exploits.
package model

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// CoreID identifies an IP core within one application. IDs are dense:
// 0..NumCores-1.
type CoreID int

// PacketID identifies a CDCG packet vertex. IDs are dense: 0..NumPackets-1.
type PacketID int

// Core is one IP core of the application.
type Core struct {
	ID   CoreID `json:"id"`
	Name string `json:"name"`
}

// CWGEdge is a directed communication c_a -> c_b carrying Bits total bits
// over the whole application run (the w_ab label of Definition 1).
type CWGEdge struct {
	Src  CoreID `json:"src"`
	Dst  CoreID `json:"dst"`
	Bits int64  `json:"bits"`
}

// CWG is the communication weighted graph <C, W> of Definition 1.
type CWG struct {
	Cores []Core    `json:"cores"`
	Edges []CWGEdge `json:"edges"`
}

// Packet is one CDCG vertex: the q-th packet from Src to Dst, transmitted
// after Compute cycles of the originating core have elapsed (t_aq) and
// carrying Bits bits (w_abq). Compute is expressed in clock cycles of the
// NoC (the paper uses λ=1 ns so cycles and nanoseconds coincide in its
// example).
type Packet struct {
	ID      PacketID `json:"id"`
	Src     CoreID   `json:"src"`
	Dst     CoreID   `json:"dst"`
	Compute int64    `json:"compute"`
	Bits    int64    `json:"bits"`
	Label   string   `json:"label,omitempty"`
}

// Dep is a dependence edge between two packet vertices: To may only start
// (begin its computation) once From has been fully delivered.
type Dep struct {
	From PacketID `json:"from"`
	To   PacketID `json:"to"`
}

// CDCG is the communication dependence and computation graph <P, D> of
// Definition 2. The special Start and End vertices are implicit: packets
// with no predecessors depend only on Start, and every packet reaches End.
type CDCG struct {
	Name    string   `json:"name,omitempty"`
	Cores   []Core   `json:"cores"`
	Packets []Packet `json:"packets"`
	Deps    []Dep    `json:"deps"`
}

// NumCores returns the number of cores in the application.
//
//nocvet:noalloc
func (g *CDCG) NumCores() int { return len(g.Cores) }

// NumPackets returns the number of packet vertices.
//
//nocvet:noalloc
func (g *CDCG) NumPackets() int { return len(g.Packets) }

// TotalBits returns the total communicated volume in bits over the whole
// application (the "total volume of bits during application execution"
// column of Table 1).
func (g *CDCG) TotalBits() int64 {
	var sum int64
	for _, p := range g.Packets {
		sum += p.Bits
	}
	return sum
}

// NumCores returns the number of cores in the application.
//
//nocvet:noalloc
func (g *CWG) NumCores() int { return len(g.Cores) }

// TotalBits returns the total communicated volume in bits.
func (g *CWG) TotalBits() int64 {
	var sum int64
	for _, e := range g.Edges {
		sum += e.Bits
	}
	return sum
}

// Validate checks structural well-formedness of a CWG: dense core IDs,
// endpoints in range, strictly positive volumes, no self communication and
// no duplicate (src,dst) pairs.
func (g *CWG) Validate() error {
	if err := validateCores(g.Cores); err != nil {
		return err
	}
	seen := make(map[[2]CoreID]bool, len(g.Edges))
	for i, e := range g.Edges {
		if int(e.Src) < 0 || int(e.Src) >= len(g.Cores) || int(e.Dst) < 0 || int(e.Dst) >= len(g.Cores) {
			return fmt.Errorf("model: CWG edge %d endpoints (%d,%d) out of range", i, e.Src, e.Dst)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("model: CWG edge %d is a self communication on core %d", i, e.Src)
		}
		if e.Bits <= 0 {
			return fmt.Errorf("model: CWG edge %d has non-positive volume %d", i, e.Bits)
		}
		k := [2]CoreID{e.Src, e.Dst}
		if seen[k] {
			return fmt.Errorf("model: duplicate CWG edge %d->%d", e.Src, e.Dst)
		}
		seen[k] = true
	}
	return nil
}

// Validate checks structural well-formedness of a CDCG: dense core and
// packet IDs, endpoints in range, positive bit volumes, non-negative
// computation times, dependence endpoints in range, and acyclicity of the
// dependence relation (a cyclic CDCG can never execute).
func (g *CDCG) Validate() error {
	if err := validateCores(g.Cores); err != nil {
		return err
	}
	if len(g.Packets) == 0 {
		return errors.New("model: CDCG has no packets")
	}
	for i, p := range g.Packets {
		if int(p.ID) != i {
			return fmt.Errorf("model: packet %d has ID %d, want dense IDs", i, p.ID)
		}
		if int(p.Src) < 0 || int(p.Src) >= len(g.Cores) || int(p.Dst) < 0 || int(p.Dst) >= len(g.Cores) {
			return fmt.Errorf("model: packet %d endpoints (%d,%d) out of range", i, p.Src, p.Dst)
		}
		if p.Src == p.Dst {
			return fmt.Errorf("model: packet %d is a self communication on core %d", i, p.Src)
		}
		if p.Bits <= 0 {
			return fmt.Errorf("model: packet %d has non-positive volume %d", i, p.Bits)
		}
		if p.Compute < 0 {
			return fmt.Errorf("model: packet %d has negative computation time %d", i, p.Compute)
		}
	}
	dg, err := g.depGraph()
	if err != nil {
		return err
	}
	if dg.HasCycle() {
		return errors.New("model: CDCG dependence relation is cyclic")
	}
	return nil
}

func validateCores(cores []Core) error {
	if len(cores) == 0 {
		return errors.New("model: application has no cores")
	}
	for i, c := range cores {
		if int(c.ID) != i {
			return fmt.Errorf("model: core %d has ID %d, want dense IDs", i, c.ID)
		}
	}
	return nil
}

// depGraph builds the dependence digraph over packet vertices.
func (g *CDCG) depGraph() (*graph.Digraph, error) {
	dg := graph.New(len(g.Packets))
	for i, d := range g.Deps {
		if int(d.From) < 0 || int(d.From) >= len(g.Packets) || int(d.To) < 0 || int(d.To) >= len(g.Packets) {
			return nil, fmt.Errorf("model: dependence %d endpoints (%d,%d) out of range", i, d.From, d.To)
		}
		if err := dg.AddEdge(int(d.From), int(d.To)); err != nil {
			return nil, fmt.Errorf("model: dependence %d: %w", i, err)
		}
	}
	return dg, nil
}

// DepGraph returns the dependence digraph over packet vertices. The CDCG
// must be valid.
func (g *CDCG) DepGraph() (*graph.Digraph, error) { return g.depGraph() }

// StartPackets returns the packets with no predecessors — exactly the
// vertices pointed to by the implicit Start vertex.
func (g *CDCG) StartPackets() ([]PacketID, error) {
	dg, err := g.depGraph()
	if err != nil {
		return nil, err
	}
	var out []PacketID
	for _, v := range dg.Sources() {
		out = append(out, PacketID(v))
	}
	return out, nil
}

// ToCWG projects the CDCG onto its communication weighted graph by
// aggregating packet volumes per (src,dst) pair: w_ab = Σ_q w_abq. Edge
// order is deterministic (first occurrence order over packet IDs).
func (g *CDCG) ToCWG() *CWG {
	cores := make([]Core, len(g.Cores))
	copy(cores, g.Cores)
	type key struct{ s, d CoreID }
	idx := make(map[key]int)
	var edges []CWGEdge
	for _, p := range g.Packets {
		k := key{p.Src, p.Dst}
		if j, ok := idx[k]; ok {
			edges[j].Bits += p.Bits
		} else {
			idx[k] = len(edges)
			edges = append(edges, CWGEdge{Src: p.Src, Dst: p.Dst, Bits: p.Bits})
		}
	}
	return &CWG{Cores: cores, Edges: edges}
}

// ComputeLowerBound returns a mapping-independent lower bound on execution
// time in cycles: the maximum over dependence chains of the sum of
// computation times along the chain. Transmission takes additional time on
// any real NoC, so no mapping can beat this bound.
func (g *CDCG) ComputeLowerBound() (int64, error) {
	dg, err := g.depGraph()
	if err != nil {
		return 0, err
	}
	return dg.LongestPath(func(v int) int64 { return g.Packets[v].Compute })
}

// CoreName returns the display name of core id, falling back to "c<id>".
func (g *CDCG) CoreName(id CoreID) string {
	if int(id) >= 0 && int(id) < len(g.Cores) && g.Cores[id].Name != "" {
		return g.Cores[id].Name
	}
	return fmt.Sprintf("c%d", id)
}

// CoreName returns the display name of core id, falling back to "c<id>".
func (g *CWG) CoreName(id CoreID) string {
	if int(id) >= 0 && int(id) < len(g.Cores) && g.Cores[id].Name != "" {
		return g.Cores[id].Name
	}
	return fmt.Sprintf("c%d", id)
}

// MakeCores is a convenience constructor producing n cores with the given
// names (remaining cores get generated names).
func MakeCores(n int, names ...string) []Core {
	cores := make([]Core, n)
	for i := range cores {
		cores[i].ID = CoreID(i)
		if i < len(names) {
			cores[i].Name = names[i]
		} else {
			cores[i].Name = fmt.Sprintf("c%d", i)
		}
	}
	return cores
}
