package model

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteJSON serialises the CDCG as indented JSON.
func (g *CDCG) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// ReadCDCG parses a CDCG from JSON and validates it.
func ReadCDCG(r io.Reader) (*CDCG, error) {
	var g CDCG
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("model: decoding CDCG: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// DOT renders the CWG in Graphviz dot syntax, one edge per communication
// labelled with its bit volume.
func (g *CWG) DOT() string {
	var b strings.Builder
	b.WriteString("digraph cwg {\n  rankdir=LR;\n")
	for _, c := range g.Cores {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", c.ID, g.CoreName(c.ID))
	}
	edges := make([]CWGEdge, len(g.Edges))
	copy(edges, g.Edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"%d\"];\n", e.Src, e.Dst, e.Bits)
	}
	b.WriteString("}\n")
	return b.String()
}

// DOT renders the CDCG in Graphviz dot syntax with explicit Start and End
// vertices, one node per packet labelled "w(src->dst) t:compute".
func (g *CDCG) DOT() string {
	var b strings.Builder
	b.WriteString("digraph cdcg {\n  rankdir=TB;\n  start [shape=circle,label=\"Start\"];\n  end [shape=doublecircle,label=\"End\"];\n")
	for _, p := range g.Packets {
		fmt.Fprintf(&b, "  p%d [shape=box,label=\"%d(%s\\u2192%s) t:%d\"];\n",
			p.ID, p.Bits, g.CoreName(p.Src), g.CoreName(p.Dst), p.Compute)
	}
	indeg := make([]int, len(g.Packets))
	outdeg := make([]int, len(g.Packets))
	for _, d := range g.Deps {
		indeg[d.To]++
		outdeg[d.From]++
		fmt.Fprintf(&b, "  p%d -> p%d;\n", d.From, d.To)
	}
	for _, p := range g.Packets {
		if indeg[p.ID] == 0 {
			fmt.Fprintf(&b, "  start -> p%d;\n", p.ID)
		}
		if outdeg[p.ID] == 0 {
			fmt.Fprintf(&b, "  p%d -> end;\n", p.ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
