package model

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// The fuzz target covers the text parser: any input must either be
// rejected with an error or produce a validated graph that survives a
// parse → format → parse round trip — the canonical rendering must
// reparse to the same graph and re-render byte-identically. Panics and
// round-trip failures are both bugs. The seed corpus lives under
// testdata/fuzz; CI runs a short -fuzz smoke on the target.

func FuzzParseCDCG(f *testing.F) {
	f.Add("name fig1\ncores A B E F\npacket pAB1 A B compute=6 bits=15\n")
	f.Add("cores A B\npacket p1 A B bits=1\npacket p2 B A compute=3 bits=2 after=p1\n")
	f.Add("cores a b c\npacket x a b bits=5\npacket y b c bits=5 after=x\npacket z a c bits=5 after=x,y\n")
	f.Add("# comment only\n\ncores solo\n")
	f.Add("cores A B\npacket p#q A B bits=1\n")
	f.Add("cores A B\npacket p0 A B bits=1\npacket x=y A B bits=2\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ParseText(strings.NewReader(input))
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		var canon bytes.Buffer
		if err := g.WriteText(&canon); err != nil {
			t.Fatalf("WriteText failed on a parsed graph: %v", err)
		}
		g2, err := ParseText(bytes.NewReader(canon.Bytes()))
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\n--- canonical ---\n%s", err, canon.String())
		}
		if g2.Name != g.Name || len(g2.Cores) != len(g.Cores) ||
			len(g2.Packets) != len(g.Packets) || !reflect.DeepEqual(g2.Deps, g.Deps) {
			t.Fatalf("round trip changed the graph shape:\n%+v\nvs\n%+v", g, g2)
		}
		if !reflect.DeepEqual(g2.Cores, g.Cores) {
			t.Fatalf("round trip changed the cores: %+v vs %+v", g.Cores, g2.Cores)
		}
		for i := range g.Packets {
			a, b := g.Packets[i], g2.Packets[i]
			// Labels are canonicalised (separator sanitising, uniqueness
			// suffixes); everything else must survive exactly.
			if a.ID != b.ID || a.Src != b.Src || a.Dst != b.Dst || a.Compute != b.Compute || a.Bits != b.Bits {
				t.Fatalf("round trip changed packet %d: %+v vs %+v", i, a, b)
			}
		}
		var canon2 bytes.Buffer
		if err := g2.WriteText(&canon2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon.Bytes(), canon2.Bytes()) {
			t.Fatalf("canonical form is not a fixed point:\n--- first ---\n%s--- second ---\n%s",
				canon.String(), canon2.String())
		}
	})
}
