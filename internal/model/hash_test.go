package model

import (
	"strings"
	"testing"
)

func TestCDCGHashStableAndContentSensitive(t *testing.T) {
	g := PaperExampleCDCG()
	h1, h2 := g.Hash(), PaperExampleCDCG().Hash()
	if h1 != h2 {
		t.Fatalf("hash not stable: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("hash %q is not hex sha256", h1)
	}

	// Any content change must change the hash.
	mut := PaperExampleCDCG()
	mut.Packets[0].Bits++
	if mut.Hash() == h1 {
		t.Error("bit-volume change kept the hash")
	}
	mut = PaperExampleCDCG()
	mut.Cores[0].Name = "Z"
	if mut.Hash() == h1 {
		t.Error("core rename kept the hash")
	}
	mut = PaperExampleCDCG()
	mut.Deps = mut.Deps[:len(mut.Deps)-1]
	if mut.Hash() == h1 {
		t.Error("dropped dependence kept the hash")
	}
}

func TestCDCGHashIgnoresDepOrderAndDuplicates(t *testing.T) {
	g := PaperExampleCDCG()
	h := g.Hash()

	perm := PaperExampleCDCG()
	perm.Deps[0], perm.Deps[len(perm.Deps)-1] = perm.Deps[len(perm.Deps)-1], perm.Deps[0]
	if perm.Hash() != h {
		t.Error("dependence order changed the hash")
	}

	dup := PaperExampleCDCG()
	dup.Deps = append(dup.Deps, dup.Deps[0])
	if dup.Hash() != h {
		t.Error("duplicate dependence changed the hash")
	}
}

func TestCanonicalBytesResistStringForgery(t *testing.T) {
	// Two different graphs whose names concatenate identically must not
	// collide: the length prefix separates "ab"+"" from "a"+"b".
	a := &CDCG{Name: "ab", Cores: MakeCores(2, "", "x"),
		Packets: []Packet{{ID: 0, Src: 0, Dst: 1, Bits: 1}}}
	b := &CDCG{Name: "a", Cores: MakeCores(2, "b", "x"),
		Packets: []Packet{{ID: 0, Src: 0, Dst: 1, Bits: 1}}}
	if a.Hash() == b.Hash() {
		t.Error("length prefixing failed: distinct graphs collide")
	}
	if !strings.HasPrefix(string(a.CanonicalBytes()), "cdcg/v1 ") {
		t.Errorf("canonical bytes missing version tag: %q", a.CanonicalBytes()[:16])
	}
}
