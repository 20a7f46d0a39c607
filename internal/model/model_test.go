package model

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestPaperExampleValid(t *testing.T) {
	g := PaperExampleCDCG()
	if err := g.Validate(); err != nil {
		t.Fatalf("paper example invalid: %v", err)
	}
	if g.NumCores() != 4 {
		t.Fatalf("cores = %d, want 4", g.NumCores())
	}
	if g.NumPackets() != 6 {
		t.Fatalf("packets = %d, want 6", g.NumPackets())
	}
	if got := g.TotalBits(); got != 120 {
		t.Fatalf("total bits = %d, want 120", got)
	}
}

func TestPaperExampleCWGWeights(t *testing.T) {
	// Figure 1(a): wAB=15, wAF=15, wBF=40, wEA=35, wFB=15.
	cwg := PaperExampleCWG()
	if err := cwg.Validate(); err != nil {
		t.Fatal(err)
	}
	want := map[[2]CoreID]int64{
		{ExampleA, ExampleB}: 15,
		{ExampleA, ExampleF}: 15,
		{ExampleB, ExampleF}: 40,
		{ExampleE, ExampleA}: 35,
		{ExampleF, ExampleB}: 15,
	}
	if len(cwg.Edges) != len(want) {
		t.Fatalf("edges = %d, want %d", len(cwg.Edges), len(want))
	}
	for _, e := range cwg.Edges {
		if want[[2]CoreID{e.Src, e.Dst}] != e.Bits {
			t.Fatalf("edge %d->%d has %d bits, want %d", e.Src, e.Dst, e.Bits, want[[2]CoreID{e.Src, e.Dst}])
		}
	}
	if cwg.TotalBits() != 120 {
		t.Fatalf("total = %d, want 120", cwg.TotalBits())
	}
}

func TestStartPackets(t *testing.T) {
	g := PaperExampleCDCG()
	starts, err := g.StartPackets()
	if err != nil {
		t.Fatal(err)
	}
	// pAB1 (0), pBF1 (1) and pEA1 (2) have no predecessors.
	want := []PacketID{0, 1, 2}
	if len(starts) != len(want) {
		t.Fatalf("starts = %v, want %v", starts, want)
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("starts = %v, want %v", starts, want)
		}
	}
}

func TestComputeLowerBound(t *testing.T) {
	g := PaperExampleCDCG()
	// Longest computation chain: pEA1(10) -> pAF1(6) -> pFB1(6) = 22
	// vs pEA1(10) -> pEA2(20) = 30.
	lb, err := g.ComputeLowerBound()
	if err != nil {
		t.Fatal(err)
	}
	if lb != 30 {
		t.Fatalf("lower bound = %d, want 30", lb)
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() *CDCG { return PaperExampleCDCG() }

	cases := []struct {
		name   string
		mutate func(*CDCG)
	}{
		{"no cores", func(g *CDCG) { g.Cores = nil }},
		{"no packets", func(g *CDCG) { g.Packets = nil }},
		{"sparse core ids", func(g *CDCG) { g.Cores[2].ID = 7 }},
		{"sparse packet ids", func(g *CDCG) { g.Packets[3].ID = 9 }},
		{"src out of range", func(g *CDCG) { g.Packets[0].Src = 99 }},
		{"dst out of range", func(g *CDCG) { g.Packets[0].Dst = -1 }},
		{"self packet", func(g *CDCG) { g.Packets[0].Dst = g.Packets[0].Src }},
		{"zero bits", func(g *CDCG) { g.Packets[0].Bits = 0 }},
		{"total bits overflow", func(g *CDCG) { g.Packets[0].Bits, g.Packets[1].Bits = 1<<62, 1<<62 }},
		{"negative compute", func(g *CDCG) { g.Packets[0].Compute = -1 }},
		{"dep out of range", func(g *CDCG) { g.Deps[0].To = 42 }},
		{"dep self loop", func(g *CDCG) { g.Deps[0].To = g.Deps[0].From }},
		{"dep cycle", func(g *CDCG) { g.Deps = append(g.Deps, Dep{From: 5, To: 0}, Dep{From: 0, To: 5}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := base()
			tc.mutate(g)
			if err := g.Validate(); err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
		})
	}
}

func TestCWGValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		g    *CWG
	}{
		{"no cores", &CWG{}},
		{"dup edge", &CWG{Cores: MakeCores(2), Edges: []CWGEdge{{0, 1, 5}, {0, 1, 7}}}},
		{"self edge", &CWG{Cores: MakeCores(2), Edges: []CWGEdge{{1, 1, 5}}}},
		{"zero bits", &CWG{Cores: MakeCores(2), Edges: []CWGEdge{{0, 1, 0}}}},
		{"range", &CWG{Cores: MakeCores(2), Edges: []CWGEdge{{0, 5, 3}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(); err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
		})
	}
}

func TestJSONRoundTripCDCG(t *testing.T) {
	g := PaperExampleCDCG()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCDCG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumPackets() != g.NumPackets() || back.TotalBits() != g.TotalBits() {
		t.Fatalf("round trip changed the graph: %+v", back)
	}
	if back.Packets[2].Label != "pEA1" {
		t.Fatalf("labels lost: %+v", back.Packets[2])
	}
}

func TestReadRejectsInvalid(t *testing.T) {
	if _, err := ReadCDCG(strings.NewReader(`{"cores":[],"packets":[]}`)); err == nil {
		t.Fatal("accepted empty CDCG")
	}
	if _, err := ReadCDCG(strings.NewReader(`{bogus`)); err == nil {
		t.Fatal("accepted malformed JSON")
	}
}

func TestDOTOutputs(t *testing.T) {
	cw := PaperExampleCWG().DOT()
	for _, want := range []string{"digraph cwg", `label="40"`, "n2 -> n0"} {
		if !strings.Contains(cw, want) {
			t.Fatalf("CWG DOT missing %q:\n%s", want, cw)
		}
	}
	cd := PaperExampleCDCG().DOT()
	for _, want := range []string{"digraph cdcg", "start -> p0", "p5 -> end", "p2 -> p3"} {
		if !strings.Contains(cd, want) {
			t.Fatalf("CDCG DOT missing %q:\n%s", want, cd)
		}
	}
}

// randomCDCG builds a structurally valid random CDCG for property tests.
func randomCDCG(rng *rand.Rand) *CDCG {
	nc := 2 + rng.Intn(8)
	np := 1 + rng.Intn(40)
	g := &CDCG{Cores: MakeCores(nc)}
	for i := 0; i < np; i++ {
		s := CoreID(rng.Intn(nc))
		d := CoreID(rng.Intn(nc))
		for d == s {
			d = CoreID(rng.Intn(nc))
		}
		g.Packets = append(g.Packets, Packet{
			ID: PacketID(i), Src: s, Dst: d,
			Compute: int64(rng.Intn(50)),
			Bits:    1 + int64(rng.Intn(1000)),
		})
	}
	// Forward edges only => acyclic.
	for i := 0; i < np; i++ {
		for j := i + 1; j < np; j++ {
			if rng.Float64() < 0.1 {
				g.Deps = append(g.Deps, Dep{From: PacketID(i), To: PacketID(j)})
			}
		}
	}
	return g
}

func TestQuickProjectionConservesVolume(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomCDCG(rng)
		if g.Validate() != nil {
			return false
		}
		cwg := g.ToCWG()
		if cwg.Validate() != nil {
			return false
		}
		return cwg.TotalBits() == g.TotalBits()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickProjectionEdgeCountAtMostPairs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomCDCG(rng)
		cwg := g.ToCWG()
		// No more CWG edges than packets, and no duplicates.
		if len(cwg.Edges) > len(g.Packets) {
			return false
		}
		seen := map[[2]CoreID]bool{}
		for _, e := range cwg.Edges {
			k := [2]CoreID{e.Src, e.Dst}
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCoreNameFallback(t *testing.T) {
	g := &CDCG{Cores: []Core{{ID: 0, Name: ""}}}
	if got := g.CoreName(0); got != "c0" {
		t.Fatalf("CoreName = %q", got)
	}
	if got := g.CoreName(12); got != "c12" {
		t.Fatalf("CoreName out of range = %q", got)
	}
}
