package model

import (
	"bytes"
	"strings"
	"testing"
)

const fig1Text = `
# The paper's Figure 1 application.
name fig1
cores A B E F
packet pAB1 A B compute=6  bits=15
packet pBF1 B F compute=10 bits=40
packet pEA1 E A compute=10 bits=20
packet pEA2 E A compute=20 bits=15 after=pEA1
packet pAF1 A F compute=6  bits=15 after=pAB1,pEA1
packet pFB1 F B compute=6  bits=15 after=pAF1
`

func TestParseTextFigure1(t *testing.T) {
	g, err := ParseText(strings.NewReader(fig1Text))
	if err != nil {
		t.Fatal(err)
	}
	ref := PaperExampleCDCG()
	if g.NumCores() != ref.NumCores() || g.NumPackets() != ref.NumPackets() {
		t.Fatalf("parsed %d cores %d packets", g.NumCores(), g.NumPackets())
	}
	if g.TotalBits() != ref.TotalBits() {
		t.Fatalf("bits = %d", g.TotalBits())
	}
	for i := range ref.Packets {
		rp, gp := ref.Packets[i], g.Packets[i]
		if rp.Src != gp.Src || rp.Dst != gp.Dst || rp.Bits != gp.Bits || rp.Compute != gp.Compute {
			t.Fatalf("packet %d: %+v vs %+v", i, gp, rp)
		}
	}
	if len(g.Deps) != len(ref.Deps) {
		t.Fatalf("deps = %d, want %d", len(g.Deps), len(ref.Deps))
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := PaperExampleCDCG()
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("round trip parse: %v\ntext:\n%s", err, buf.String())
	}
	if back.Name != g.Name || back.NumPackets() != g.NumPackets() || back.TotalBits() != g.TotalBits() {
		t.Fatalf("round trip changed the graph")
	}
	if len(back.Deps) != len(g.Deps) {
		t.Fatalf("round trip deps = %d, want %d", len(back.Deps), len(g.Deps))
	}
}

func TestWriteTextUnlabeled(t *testing.T) {
	g := &CDCG{
		Cores: MakeCores(2, "a", "b"),
		Packets: []Packet{
			{ID: 0, Src: 0, Dst: 1, Compute: 1, Bits: 5},
			{ID: 1, Src: 1, Dst: 0, Compute: 2, Bits: 7},
		},
		Deps: []Dep{{From: 0, To: 1}},
	}
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "packet p1 b a compute=2 bits=7 after=p0") {
		t.Fatalf("unlabeled render:\n%s", buf.String())
	}
	if _, err := ParseText(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"unknown directive", "frobnicate x"},
		{"name arity", "name a b"},
		{"dup core", "cores A A"},
		{"packet arity", "cores A B\npacket p1 A"},
		{"unknown src", "cores A B\npacket p1 X B bits=5"},
		{"unknown dst", "cores A B\npacket p1 A X bits=5"},
		{"dup packet", "cores A B\npacket p1 A B bits=5\npacket p1 B A bits=5"},
		{"bad kv", "cores A B\npacket p1 A B bits"},
		{"bad compute", "cores A B\npacket p1 A B compute=x bits=5"},
		{"bad bits", "cores A B\npacket p1 A B bits=x"},
		{"missing bits", "cores A B\npacket p1 A B compute=5"},
		{"unknown attr", "cores A B\npacket p1 A B bits=5 color=red"},
		{"unknown dep", "cores A B\npacket p1 A B bits=5 after=p0"},
		{"forward dep impossible", "cores A B\npacket p1 A B bits=5 after=p2\npacket p2 B A bits=5"},
		{"self packet", "cores A B\npacket p1 A A bits=5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseText(strings.NewReader(tc.text)); err == nil {
				t.Fatalf("accepted:\n%s", tc.text)
			}
		})
	}
}

func TestTextRoundTripAwkwardLabels(t *testing.T) {
	// Labels with separator characters (the FFT builder emits commas)
	// must survive the round trip via sanitisation.
	g := &CDCG{
		Cores: MakeCores(3, "a", "b", "c"),
		Packets: []Packet{
			{ID: 0, Src: 0, Dst: 1, Bits: 5, Label: "bfly[s0,0->4]"},
			{ID: 1, Src: 1, Dst: 2, Bits: 5, Label: "x=y #z"},
			{ID: 2, Src: 2, Dst: 0, Bits: 5, Label: "bfly[s0,0->4]"}, // sanitised collision
		},
		Deps: []Dep{{From: 0, To: 1}, {From: 1, To: 2}, {From: 0, To: 2}},
	}
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("%v\ntext:\n%s", err, buf.String())
	}
	if back.NumPackets() != 3 || len(back.Deps) != 3 {
		t.Fatalf("round trip lost structure:\n%s", buf.String())
	}
}

func TestParseTextCommentsAndBlank(t *testing.T) {
	text := "# header\n\ncores A B # trailing\npacket p A B bits=3 # done\n"
	g, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPackets() != 1 || g.Packets[0].Bits != 3 {
		t.Fatalf("parsed %+v", g.Packets)
	}
}

// TestWriteTextSanitisesProgrammaticNames covers graphs built in code
// rather than by the parser: core names carrying whitespace or '#', and
// colliding names, must still render to parseable, round-trippable text.
func TestWriteTextSanitisesProgrammaticNames(t *testing.T) {
	g := &CDCG{
		Cores: []Core{
			{ID: 0, Name: "a b"},
			{ID: 1, Name: "a_b"}, // collides with 0 after sanitising
			{ID: 2, Name: "c#2"},
		},
		Packets: []Packet{{ID: 0, Src: 0, Dst: 2, Bits: 7}, {ID: 1, Src: 1, Dst: 0, Bits: 3}},
	}
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("sanitised output does not parse: %v\n%s", err, buf.String())
	}
	if g2.NumCores() != 3 || len(g2.Packets) != 2 {
		t.Fatalf("round trip changed the structure: %+v", g2)
	}
	for i, p := range g2.Packets {
		q := g.Packets[i]
		if p.Src != q.Src || p.Dst != q.Dst || p.Bits != q.Bits {
			t.Fatalf("round trip changed packet %d: %+v vs %+v", i, p, q)
		}
	}
}
