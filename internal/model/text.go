package model

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements a compact, line-oriented text format for CDCGs,
// convenient for hand-written applications (the paper notes CDCGs "are
// described by hand"). Grammar, one directive per line, '#' comments:
//
//	name  <application-name>
//	cores <name> [<name> ...]
//	packet <label> <src> <dst> compute=<cycles> bits=<bits> [after=<lbl>[,<lbl>...]]
//
// Cores are referenced by name; packets by label. Dependences are
// declared inline with after=. Example (the paper's Figure 1):
//
//	name fig1
//	cores A B E F
//	packet pAB1 A B compute=6  bits=15
//	packet pBF1 B F compute=10 bits=40
//	packet pEA1 E A compute=10 bits=20
//	packet pEA2 E A compute=20 bits=15 after=pEA1
//	packet pAF1 A F compute=6  bits=15 after=pAB1,pEA1
//	packet pFB1 F B compute=6  bits=15 after=pAF1

// ParseText reads the text format and returns a validated CDCG.
func ParseText(r io.Reader) (*CDCG, error) {
	g := &CDCG{}
	coreByName := make(map[string]CoreID)
	pktByLabel := make(map[string]PacketID)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "name":
			if len(fields) != 2 {
				return nil, fmt.Errorf("model: line %d: name takes one argument", lineNo)
			}
			g.Name = fields[1]
		case "core", "cores":
			for _, name := range fields[1:] {
				if _, dup := coreByName[name]; dup {
					return nil, fmt.Errorf("model: line %d: duplicate core %q", lineNo, name)
				}
				id := CoreID(len(g.Cores))
				coreByName[name] = id
				g.Cores = append(g.Cores, Core{ID: id, Name: name})
			}
		case "packet":
			if len(fields) < 4 {
				return nil, fmt.Errorf("model: line %d: packet needs label, src, dst", lineNo)
			}
			label := fields[1]
			if _, dup := pktByLabel[label]; dup {
				return nil, fmt.Errorf("model: line %d: duplicate packet %q", lineNo, label)
			}
			src, ok := coreByName[fields[2]]
			if !ok {
				return nil, fmt.Errorf("model: line %d: unknown core %q", lineNo, fields[2])
			}
			dst, ok := coreByName[fields[3]]
			if !ok {
				return nil, fmt.Errorf("model: line %d: unknown core %q", lineNo, fields[3])
			}
			pkt := Packet{ID: PacketID(len(g.Packets)), Src: src, Dst: dst, Label: label}
			haveBits := false
			for _, kv := range fields[4:] {
				key, val, found := strings.Cut(kv, "=")
				if !found {
					return nil, fmt.Errorf("model: line %d: expected key=value, got %q", lineNo, kv)
				}
				switch key {
				case "compute":
					n, err := strconv.ParseInt(val, 10, 64)
					if err != nil {
						return nil, fmt.Errorf("model: line %d: compute: %w", lineNo, err)
					}
					pkt.Compute = n
				case "bits":
					n, err := strconv.ParseInt(val, 10, 64)
					if err != nil {
						return nil, fmt.Errorf("model: line %d: bits: %w", lineNo, err)
					}
					pkt.Bits = n
					haveBits = true
				case "after":
					for _, dep := range strings.Split(val, ",") {
						from, ok := pktByLabel[dep]
						if !ok {
							return nil, fmt.Errorf("model: line %d: unknown packet %q in after=", lineNo, dep)
						}
						g.Deps = append(g.Deps, Dep{From: from, To: pkt.ID})
					}
				default:
					return nil, fmt.Errorf("model: line %d: unknown attribute %q", lineNo, key)
				}
			}
			if !haveBits {
				return nil, fmt.Errorf("model: line %d: packet %q needs bits=", lineNo, label)
			}
			pktByLabel[label] = pkt.ID
			g.Packets = append(g.Packets, pkt)
		default:
			return nil, fmt.Errorf("model: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("model: reading text CDCG: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// sanitize replaces every byte of s listed in seps with '_'. The
// separator sets are pure ASCII, so byte-wise mapping leaves every other
// byte untouched — including invalid UTF-8, which strings.Map would
// silently re-encode as U+FFFD and break byte-exact round trips.
func sanitize(s, seps string) string {
	var b []byte
	for i := 0; i < len(s); i++ {
		if strings.IndexByte(seps, s[i]) >= 0 {
			if b == nil {
				b = []byte(s)
			}
			b[i] = '_'
		}
	}
	if b == nil {
		return s
	}
	return string(b)
}

// writeNames returns parser-safe, unique renderings of the n core names:
// characters the line format cannot carry in a name (whitespace, '#') are
// sanitised to underscores and collisions get '_' suffixes, mirroring the
// packet-label canonicalisation. Parser-produced names pass through
// untouched (they are whitespace- and comment-free by construction); the
// sanitising exists for graphs built programmatically, whose names would
// otherwise render to text the parser cannot round-trip.
func writeNames(n int, name func(CoreID) string) []string {
	names := make([]string, n)
	used := make(map[string]bool, n)
	for i := range names {
		l := sanitize(name(CoreID(i)), " \t\n\r#")
		if l == "" {
			l = fmt.Sprintf("c%d", i)
		}
		for used[l] {
			l += "_"
		}
		used[l] = true
		names[i] = l
	}
	return names
}

// WriteText renders the CDCG in the text format parsed by ParseText.
// Packets without labels get generated p<ID> labels.
func (g *CDCG) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if g.Name != "" {
		fmt.Fprintf(bw, "name %s\n", g.Name)
	}
	names := writeNames(len(g.Cores), g.CoreName)
	bw.WriteString("cores")
	for _, n := range names {
		fmt.Fprintf(bw, " %s", n)
	}
	bw.WriteByte('\n')

	// Labels serve as references in after= lists, so characters that the
	// parser treats as separators (whitespace, commas, '#', '=') are
	// sanitised to underscores. Labels are assigned up front in packet-ID
	// order and forced unique by suffixing '_' — a collision fallback that
	// invented p<ID> names could itself collide with another packet's
	// literal label and render unparseable output.
	labels := make([]string, len(g.Packets))
	used := make(map[string]bool, len(g.Packets))
	for i, p := range g.Packets {
		l := sanitize(p.Label, " \t\n\r,#=")
		if l == "" {
			l = fmt.Sprintf("p%d", p.ID)
		}
		for used[l] {
			l += "_"
		}
		used[l] = true
		labels[i] = l
	}
	label := func(id PacketID) string { return labels[id] }
	after := make(map[PacketID][]string)
	for _, d := range g.Deps {
		after[d.To] = append(after[d.To], label(d.From))
	}
	for _, p := range g.Packets {
		fmt.Fprintf(bw, "packet %s %s %s compute=%d bits=%d",
			label(p.ID), names[p.Src], names[p.Dst], p.Compute, p.Bits)
		if deps := after[p.ID]; len(deps) > 0 {
			fmt.Fprintf(bw, " after=%s", strings.Join(deps, ","))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
