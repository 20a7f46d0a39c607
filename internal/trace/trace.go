// Package trace renders simulation results as text: the timing diagrams
// of the paper's Figures 4 and 5 (per-packet Gantt charts distinguishing
// computation, routing, contention and payload time), the annotated-CRG
// views of Figures 2 and 3 (per-resource energy and occupancy lists), and
// plain column tables for the experiment reports.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// Gantt renders the per-packet timing diagram of a simulation — the
// paper's Figure 4/5. Each row shows one packet as
//
//	computation '.' | routing 'r' | contention 'x' | payload '='
//
// scaled to at most width columns. Segment order approximates the paper's
// legend; contention is drawn between routing and payload even though it
// physically interleaves with routing hop by hop.
func Gantt(g *model.CDCG, cfg noc.Config, res *wormhole.Result, width int) string {
	if width < 40 {
		width = 40
	}
	span := res.ExecCycles
	if span <= 0 {
		span = 1
	}
	cols := width - 24 // label gutter
	scale := float64(cols) / float64(span+1)

	var b strings.Builder
	end := fmt.Sprintf("%d", span)
	fmt.Fprintf(&b, "%-22s|%-*s%s\n", "time (cycles)", cols-len(end), "0", end)
	fmt.Fprintf(&b, "%-22s+%s\n", "packet", strings.Repeat("-", cols))
	for i, ps := range res.Packets {
		pkt := g.Packets[i]
		label := fmt.Sprintf("%d(%s>%s):%d", pkt.Bits, g.CoreName(pkt.Src), g.CoreName(pkt.Dst), pkt.Compute)
		if len(label) > 22 {
			label = label[:22]
		}
		row := make([]byte, cols)
		for j := range row {
			row[j] = ' '
		}
		mark := func(from, to int64, ch byte) {
			if to < from {
				return
			}
			a := int(float64(from) * scale)
			z := int(float64(to) * scale)
			if z >= cols {
				z = cols - 1
			}
			for j := a; j <= z && j >= 0; j++ {
				row[j] = ch
			}
		}
		route := cfg.RoutingDelay(ps.K)
		payload := cfg.PayloadDelay(ps.Flits)
		mark(ps.Ready, ps.Start, '.')
		mark(ps.Start, ps.Start+route, 'r')
		mark(ps.Start+route, ps.Start+route+ps.Contention, 'x')
		mark(ps.Start+route+ps.Contention, ps.Start+route+ps.Contention+payload, '=')
		fmt.Fprintf(&b, "%-22s|%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%-22s|legend: .=computation r=routing x=contention ==payload\n", "")
	fmt.Fprintf(&b, "texec = %d cycles (%.4g ns)\n", res.ExecCycles, cfg.CyclesToNS(res.ExecCycles))
	return b.String()
}

// AnnotateCWM renders the Figure-2 view: each router and used link
// labelled with its cost-variable bit volume and the resulting dynamic
// energy in picojoules.
func AnnotateCWM(mesh *topology.Mesh, g *model.CWG, mp mapping.Mapping,
	routerBits, linkBits []int64, erbit, elbit float64) string {

	occ := mp.Occupants(mesh.NumTiles())
	var b strings.Builder
	b.WriteString("CWM cost variables (bits through each resource):\n")
	for z := 0; z < mesh.D(); z++ {
		if mesh.D() > 1 {
			fmt.Fprintf(&b, "  layer %d:\n", z)
		}
		for y := 0; y < mesh.H(); y++ {
			for x := 0; x < mesh.W(); x++ {
				t := mesh.TileAt(x, y, z)
				who := "-"
				if occ[t] != mapping.Unassigned {
					who = g.CoreName(occ[t])
				}
				fmt.Fprintf(&b, "  [%s %s:%d]", mesh.TileName(t), who, routerBits[t])
			}
			b.WriteByte('\n')
		}
	}
	b.WriteString("links:\n")
	for li, bits := range linkBits {
		if bits == 0 {
			continue
		}
		from, to, _ := mesh.LinkEnds(li)
		fmt.Fprintf(&b, "  %s->%s: %d bits\n", mesh.TileName(from), mesh.TileName(to), bits)
	}
	var rb, lb int64
	for _, v := range routerBits {
		rb += v
	}
	for _, v := range linkBits {
		lb += v
	}
	fmt.Fprintf(&b, "EDyNoC = %.6g pJ (routers %.6g pJ + links %.6g pJ)\n",
		(float64(rb)*erbit+float64(lb)*elbit)*1e12, float64(rb)*erbit*1e12, float64(lb)*elbit*1e12)
	return b.String()
}

// AnnotateSchedule renders the Figure-3 view: the occupancy list of every
// router, inter-tile link and core link, in the paper's
// "bits(src>dst):[start,end]" notation. Entries of packets that suffered
// contention anywhere on their route are starred like the paper's figure.
// The result must come from a run on a scratch with RecordOccupancy set,
// such as core.CDCM.Simulate.
func AnnotateSchedule(mesh *topology.Mesh, g *model.CDCG, mp mapping.Mapping, res *wormhole.Result) string {
	contended := make(map[model.PacketID]bool)
	for _, ps := range res.Packets {
		if ps.Contention > 0 {
			contended[ps.ID] = true
		}
	}
	occ := mp.Occupants(mesh.NumTiles())
	entry := func(o wormhole.Occupancy) string {
		pkt := g.Packets[o.Packet]
		star := ""
		if contended[o.Packet] {
			star = "*"
		}
		return fmt.Sprintf("%s%d(%s>%s):[%d,%d]", star, pkt.Bits,
			g.CoreName(pkt.Src), g.CoreName(pkt.Dst), o.Start, o.End)
	}
	list := func(os []wormhole.Occupancy) string {
		if len(os) == 0 {
			return "0"
		}
		parts := make([]string, len(os))
		for i, o := range os {
			parts[i] = entry(o)
		}
		return strings.Join(parts, " ")
	}

	var b strings.Builder
	fmt.Fprintf(&b, "CDCM occupancy annotation (texec = %d cycles):\n", res.ExecCycles)
	for t := 0; t < mesh.NumTiles(); t++ {
		who := "-"
		if occ[t] != mapping.Unassigned {
			who = g.CoreName(occ[t])
		}
		fmt.Fprintf(&b, "router %s (%s): %s\n", mesh.TileName(topology.TileID(t)), who,
			list(res.Occupancies(wormhole.KindRouter, t)))
	}
	for li := 0; li < mesh.NumLinks(); li++ {
		os := res.Occupancies(wormhole.KindLink, li)
		if len(os) == 0 {
			continue
		}
		from, to, _ := mesh.LinkEnds(li)
		fmt.Fprintf(&b, "link %s->%s: %s\n", mesh.TileName(from), mesh.TileName(to), list(os))
	}
	for t := 0; t < mesh.NumTiles(); t++ {
		if occ[t] == mapping.Unassigned {
			continue
		}
		name := g.CoreName(occ[t])
		if os := res.Occupancies(wormhole.KindCoreOut, t); len(os) > 0 {
			fmt.Fprintf(&b, "core-out %s@%s: %s\n", name, mesh.TileName(topology.TileID(t)), list(os))
		}
		if os := res.Occupancies(wormhole.KindCoreIn, t); len(os) > 0 {
			fmt.Fprintf(&b, "core-in  %s@%s: %s\n", name, mesh.TileName(topology.TileID(t)), list(os))
		}
	}
	return b.String()
}

// Table renders rows under headers with columns padded to their widest
// cell — the experiment reports' output format.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(widths))
		for i := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	var b strings.Builder
	b.WriteString(line(headers))
	b.WriteByte('\n')
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(line(r))
		b.WriteByte('\n')
	}
	return b.String()
}

// MappingGrid renders which core sits on which tile.
func MappingGrid(mesh *topology.Mesh, names func(model.CoreID) string, mp mapping.Mapping) string {
	occ := mp.Occupants(mesh.NumTiles())
	width := 1
	for t := range occ {
		label := "-"
		if occ[t] != mapping.Unassigned {
			label = names(occ[t])
		}
		if len(label) > width {
			width = len(label)
		}
	}
	var b strings.Builder
	for z := 0; z < mesh.D(); z++ {
		if mesh.D() > 1 {
			fmt.Fprintf(&b, "layer %d:\n", z)
		}
		for y := 0; y < mesh.H(); y++ {
			for x := 0; x < mesh.W(); x++ {
				t := mesh.TileAt(x, y, z)
				label := "-"
				if occ[t] != mapping.Unassigned {
					label = names(occ[t])
				}
				fmt.Fprintf(&b, "[%-*s]", width, label)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// SortedPacketIDs returns packet IDs ordered by start time then ID —
// useful for stable diagram row ordering when callers want paper-like
// grouping instead of ID order.
func SortedPacketIDs(res *wormhole.Result) []model.PacketID {
	ids := make([]model.PacketID, len(res.Packets))
	for i := range ids {
		ids[i] = model.PacketID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		pa, pb := res.Packets[ids[a]], res.Packets[ids[b]]
		if pa.Start != pb.Start {
			return pa.Start < pb.Start
		}
		return ids[a] < ids[b]
	})
	return ids
}
