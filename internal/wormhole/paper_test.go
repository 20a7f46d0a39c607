package wormhole

// Golden tests: the simulator must reproduce, exactly, every number the
// paper publishes for its Section 4.1 worked example — the two mappings of
// Figure 1(c,d), every resource interval annotated in Figure 3, the
// contention of Figure 4 and the execution times 100 ns / 90 ns.

import (
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
)

// Paper tile layout on the 2x2 mesh: t1 t2 / t3 t4 (IDs 0..3).
//
// MappingA is Figure 1(c): B@t1, A@t2, F@t3, E@t4.
// MappingB is Figure 1(d): B@t1, E@t2, F@t3, A@t4.
// Core order in the model is A, B, E, F.
var (
	paperMappingA = mapping.Mapping{1, 0, 3, 2}
	paperMappingB = mapping.Mapping{3, 0, 1, 2}
)

func newPaperSim(t *testing.T) *Simulator {
	t.Helper()
	mesh, err := topology.NewMesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(mesh, noc.Default(), model.PaperExampleCDCG())
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestPaperMappingAExecutionTime(t *testing.T) {
	sim := newPaperSim(t)
	res, err := sim.Run(paperMappingA)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecCycles != 100 {
		t.Fatalf("texec(a) = %d, want 100 (paper Figure 3a)", res.ExecCycles)
	}
}

func TestPaperMappingBExecutionTime(t *testing.T) {
	sim := newPaperSim(t)
	res, err := sim.Run(paperMappingB)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecCycles != 90 {
		t.Fatalf("texec(b) = %d, want 90 (paper Figure 3b)", res.ExecCycles)
	}
}

func TestPaperMappingAPacketTimeline(t *testing.T) {
	sim := newPaperSim(t)
	res, err := sim.Run(paperMappingA)
	if err != nil {
		t.Fatal(err)
	}
	// id: pAB1=0 pBF1=1 pEA1=2 pEA2=3 pAF1=4 pFB1=5
	want := []PacketSchedule{
		{ID: 0, Ready: 0, Start: 6, Delivered: 27, Contention: 0, K: 2, Flits: 15},
		{ID: 1, Ready: 0, Start: 10, Delivered: 56, Contention: 0, K: 2, Flits: 40},
		{ID: 2, Ready: 0, Start: 10, Delivered: 36, Contention: 0, K: 2, Flits: 20},
		{ID: 3, Ready: 36, Start: 56, Delivered: 77, Contention: 0, K: 2, Flits: 15},
		{ID: 4, Ready: 36, Start: 42, Delivered: 73, Contention: 7, K: 3, Flits: 15},
		{ID: 5, Ready: 73, Start: 79, Delivered: 100, Contention: 0, K: 2, Flits: 15},
	}
	for i, w := range want {
		if res.Packets[i] != w {
			t.Errorf("packet %d: got %+v, want %+v", i, res.Packets[i], w)
		}
	}
	if res.TotalContention != 7 {
		t.Fatalf("total contention = %d, want 7 (Figure 4)", res.TotalContention)
	}
}

func TestPaperMappingBPacketTimeline(t *testing.T) {
	sim := newPaperSim(t)
	res, err := sim.Run(paperMappingB)
	if err != nil {
		t.Fatal(err)
	}
	want := []PacketSchedule{
		{ID: 0, Ready: 0, Start: 6, Delivered: 30, Contention: 0, K: 3, Flits: 15},
		{ID: 1, Ready: 0, Start: 10, Delivered: 56, Contention: 0, K: 2, Flits: 40},
		{ID: 2, Ready: 0, Start: 10, Delivered: 36, Contention: 0, K: 2, Flits: 20},
		{ID: 3, Ready: 36, Start: 56, Delivered: 77, Contention: 0, K: 2, Flits: 15},
		{ID: 4, Ready: 36, Start: 42, Delivered: 63, Contention: 0, K: 2, Flits: 15},
		{ID: 5, Ready: 63, Start: 69, Delivered: 90, Contention: 0, K: 2, Flits: 15},
	}
	for i, w := range want {
		if res.Packets[i] != w {
			t.Errorf("packet %d: got %+v, want %+v", i, res.Packets[i], w)
		}
	}
	if res.TotalContention != 0 {
		t.Fatalf("mapping (b) should be contention free (Figure 5), got %d", res.TotalContention)
	}
}

// occEq asserts an occupancy list matches (packet, start, end) triples.
func occEq(t *testing.T, got []Occupancy, want []Occupancy, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: got %+v, want %+v\nfull: %v", what, i, got[i], want[i], got)
		}
	}
}

// TestPaperFigure3aResourceIntervals checks every interval the paper
// annotates on the mapping-(a) CRG (Figure 3a). Packet IDs:
// pAB1=0 pBF1=1 pEA1=2 pEA2=3 pAF1=4 pFB1=5. Tiles: t1=0 t2=1 t3=2 t4=3.
func TestPaperFigure3aResourceIntervals(t *testing.T) {
	sim := newPaperSim(t)
	res, err := RunRecording(sim, paperMappingA)
	if err != nil {
		t.Fatal(err)
	}
	mesh := sim.Mesh
	link := func(a, b topology.TileID) int {
		li, ok := mesh.LinkIndex(a, b)
		if !ok {
			t.Fatalf("no link %d->%d", a, b)
		}
		return li
	}

	// Core output links. Core A@t2: 15(A→B):[6,21], 15(A→F):[42,57].
	occEq(t, res.Occupancies(KindCoreOut, 1), []Occupancy{
		{Packet: 0, Start: 6, End: 21},
		{Packet: 4, Start: 42, End: 57},
	}, "coreOut(A@t2)")
	// Core B@t1: 40(B→F):[10,50].
	occEq(t, res.Occupancies(KindCoreOut, 0), []Occupancy{
		{Packet: 1, Start: 10, End: 50},
	}, "coreOut(B@t1)")
	// Core E@t4: 20(E→A):[10,30], 15(E→A):[56,71].
	occEq(t, res.Occupancies(KindCoreOut, 3), []Occupancy{
		{Packet: 2, Start: 10, End: 30},
		{Packet: 3, Start: 56, End: 71},
	}, "coreOut(E@t4)")
	// Core F@t3: 15(F→B):[79,94].
	occEq(t, res.Occupancies(KindCoreOut, 2), []Occupancy{
		{Packet: 5, Start: 79, End: 94},
	}, "coreOut(F@t3)")

	// Core input links. A@t2 receives E→A twice: [16,36], [62,77].
	occEq(t, res.Occupancies(KindCoreIn, 1), []Occupancy{
		{Packet: 2, Start: 16, End: 36},
		{Packet: 3, Start: 62, End: 77},
	}, "coreIn(A@t2)")
	// B@t1 receives A→B [12,27] and F→B [85,100].
	occEq(t, res.Occupancies(KindCoreIn, 0), []Occupancy{
		{Packet: 0, Start: 12, End: 27},
		{Packet: 5, Start: 85, End: 100},
	}, "coreIn(B@t1)")
	// F@t3 receives B→F [16,56] and the contended A→F [58,73] (starred).
	occEq(t, res.Occupancies(KindCoreIn, 2), []Occupancy{
		{Packet: 1, Start: 16, End: 56},
		{Packet: 4, Start: 58, End: 73},
	}, "coreIn(F@t3)")

	// Inter-tile links.
	// t2->t1: 15(A→B):[9,24], 15(A→F):[45,60].
	occEq(t, res.Occupancies(KindLink, link(1, 0)), []Occupancy{
		{Packet: 0, Start: 9, End: 24},
		{Packet: 4, Start: 45, End: 60},
	}, "link t2->t1")
	// t1->t3: 40(B→F):[13,53], *15(A→F):[55,70].
	occEq(t, res.Occupancies(KindLink, link(0, 2)), []Occupancy{
		{Packet: 1, Start: 13, End: 53},
		{Packet: 4, Start: 55, End: 70},
	}, "link t1->t3")
	// t4->t2: 20(E→A):[13,33], 15(E→A):[59,74].
	occEq(t, res.Occupancies(KindLink, link(3, 1)), []Occupancy{
		{Packet: 2, Start: 13, End: 33},
		{Packet: 3, Start: 59, End: 74},
	}, "link t4->t2")
	// t3->t1: 15(F→B):[82,97].
	occEq(t, res.Occupancies(KindLink, link(2, 0)), []Occupancy{
		{Packet: 5, Start: 82, End: 97},
	}, "link t3->t1")

	// Router display spans (include buffer wait; may overlap).
	// Router t1: 15(A→B):[10,26], 40(B→F):[11,52], *15(A→F):[46,69],
	// 15(F→B):[83,99].
	occEq(t, res.Occupancies(KindRouter, 0), []Occupancy{
		{Packet: 0, Start: 10, End: 26},
		{Packet: 1, Start: 11, End: 52},
		{Packet: 4, Start: 46, End: 69},
		{Packet: 5, Start: 83, End: 99},
	}, "router t1")
	// Router t2: 15(A→B):[7,23], 20(E→A):[14,35], 15(E→A):[60,76],
	// 15(A→F):[43,59].
	occEq(t, res.Occupancies(KindRouter, 1), []Occupancy{
		{Packet: 0, Start: 7, End: 23},
		{Packet: 2, Start: 14, End: 35},
		{Packet: 4, Start: 43, End: 59},
		{Packet: 3, Start: 60, End: 76},
	}, "router t2")
	// Router t3: 40(B→F):[14,55], *15(A→F):[56,72], 15(F→B):[80,96].
	occEq(t, res.Occupancies(KindRouter, 2), []Occupancy{
		{Packet: 1, Start: 14, End: 55},
		{Packet: 4, Start: 56, End: 72},
		{Packet: 5, Start: 80, End: 96},
	}, "router t3")
	// Router t4: 20(E→A):[11,32], 15(E→A):[57,73].
	occEq(t, res.Occupancies(KindRouter, 3), []Occupancy{
		{Packet: 2, Start: 11, End: 32},
		{Packet: 3, Start: 57, End: 73},
	}, "router t4")
}

// TestPaperFigure3bResourceIntervals spot-checks the contention-free
// mapping (b) intervals the paper prints.
func TestPaperFigure3bResourceIntervals(t *testing.T) {
	sim := newPaperSim(t)
	res, err := RunRecording(sim, paperMappingB)
	if err != nil {
		t.Fatal(err)
	}
	mesh := sim.Mesh
	link := func(a, b topology.TileID) int {
		li, _ := mesh.LinkIndex(a, b)
		return li
	}
	// A@t4 now: A→B crosses t4 [7,23], t3 [10,26], t1 [13,29]; t4 also
	// delivers both E→A packets and injects A→F.
	occEq(t, res.Occupancies(KindRouter, 3), []Occupancy{
		{Packet: 0, Start: 7, End: 23},
		{Packet: 2, Start: 14, End: 35},
		{Packet: 4, Start: 43, End: 59},
		{Packet: 3, Start: 60, End: 76},
	}, "router t4 (b)")
	// Core F's delivery link shows the paper's overlapping bookings:
	// 40(B→F):[16,56] and 15(A→F):[48,63] — delivery is not arbitrated.
	occEq(t, res.Occupancies(KindCoreIn, 2), []Occupancy{
		{Packet: 1, Start: 16, End: 56},
		{Packet: 4, Start: 48, End: 63},
	}, "coreIn(F@t3) (b)")
	// 15(F→B):[69,84] is core F's output link.
	occEq(t, res.Occupancies(KindCoreOut, 2), []Occupancy{
		{Packet: 5, Start: 69, End: 84},
	}, "coreOut(F@t3) (b)")
	occEq(t, res.Occupancies(KindCoreIn, 0), []Occupancy{
		{Packet: 0, Start: 15, End: 30},
		{Packet: 5, Start: 75, End: 90},
	}, "coreIn(B@t1) (b)")
	// Link t4->t3 carries A→B [9,24] and A→F [45,60].
	occEq(t, res.Occupancies(KindLink, link(3, 2)), []Occupancy{
		{Packet: 0, Start: 9, End: 24},
		{Packet: 4, Start: 45, End: 60},
	}, "link t4->t3 (b)")
}

// TestPaperTrafficAggregates checks the bit-volume aggregates that feed
// the energy model: 255 router-bit and 135 link-bit for both mappings
// (hence the identical 390 pJ dynamic energy of Figure 2).
func TestPaperTrafficAggregates(t *testing.T) {
	sim := newPaperSim(t)
	for _, tc := range []struct {
		name string
		mp   mapping.Mapping
	}{{"a", paperMappingA}, {"b", paperMappingB}} {
		name, mp := tc.name, tc.mp
		res, err := sim.Run(mp)
		if err != nil {
			t.Fatal(err)
		}
		var rb, lb int64
		for _, b := range res.RouterBits {
			rb += b
		}
		for _, b := range res.LinkBits {
			lb += b
		}
		if rb != 255 {
			t.Errorf("mapping %s: router bits = %d, want 255", name, rb)
		}
		if lb != 135 {
			t.Errorf("mapping %s: link bits = %d, want 135", name, lb)
		}
		if res.CoreBits != 240 { // 2 x 120 total bits
			t.Errorf("mapping %s: core bits = %d, want 240", name, res.CoreBits)
		}
	}
}

// TestPaperEquation8NoContention verifies delivered-start equals the
// paper's equation (8) for every uncontended packet of mapping (b).
func TestPaperEquation8NoContention(t *testing.T) {
	sim := newPaperSim(t)
	res, err := sim.Run(paperMappingB)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Cfg
	for _, ps := range res.Packets {
		want := cfg.UncontendedDelay(ps.K, ps.Flits)
		if got := ps.Delivered - ps.Start; got != want {
			t.Errorf("packet %d: delay %d, want eq(8) %d", ps.ID, got, want)
		}
		// And eq(8) = eq(6) + eq(7): d = dR + dP.
		if want != cfg.RoutingDelay(ps.K)+cfg.PayloadDelay(ps.Flits) {
			t.Errorf("packet %d: eq(6)+eq(7) != eq(8)", ps.ID)
		}
	}
}
