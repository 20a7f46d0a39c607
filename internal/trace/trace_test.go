package trace

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

var (
	mapA = mapping.Mapping{1, 0, 3, 2}
	mapB = mapping.Mapping{3, 0, 1, 2}
)

func paperRun(t *testing.T, mp mapping.Mapping) (*topology.Mesh, *model.CDCG, noc.Config, *wormhole.Result) {
	t.Helper()
	mesh, err := topology.NewMesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := model.PaperExampleCDCG()
	cfg := noc.PaperExample()
	sim, err := wormhole.NewSimulator(mesh, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScratch()
	sc.RecordOccupancy = true
	res, err := sim.RunScratch(mp, sc)
	if err != nil {
		t.Fatal(err)
	}
	return mesh, g, cfg, res
}

func TestGanttFigure4(t *testing.T) {
	_, g, cfg, res := paperRun(t, mapA)
	out := Gantt(g, cfg, res, 100)
	// All six packet rows present.
	for _, want := range []string{"15(A>B):6", "40(B>F):10", "20(E>A):10",
		"15(E>A):20", "15(A>F):6", "15(F>B):6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Gantt missing row %q:\n%s", want, out)
		}
	}
	// The contended A→F row must show contention marks; texec printed.
	if !strings.Contains(out, "x") {
		t.Fatalf("no contention marks in Figure-4 diagram:\n%s", out)
	}
	if !strings.Contains(out, "texec = 100 cycles") {
		t.Fatalf("missing texec:\n%s", out)
	}
}

func TestGanttFigure5NoContention(t *testing.T) {
	_, g, cfg, res := paperRun(t, mapB)
	out := Gantt(g, cfg, res, 100)
	for _, line := range strings.Split(out, "\n") {
		// Only packet rows (label|bar) carry marks; skip legend/footer.
		if !strings.Contains(line, "|") || strings.Contains(line, "legend") {
			continue
		}
		if strings.Contains(line, "x") {
			t.Fatalf("Figure-5 mapping should have no contention marks: %q", line)
		}
	}
	if !strings.Contains(out, "texec = 90 cycles") {
		t.Fatalf("missing texec:\n%s", out)
	}
}

func TestGanttMinWidth(t *testing.T) {
	_, g, cfg, res := paperRun(t, mapA)
	out := Gantt(g, cfg, res, 5) // clamped to 40
	if len(out) == 0 || !strings.Contains(out, "legend") {
		t.Fatal("narrow Gantt broken")
	}
}

func TestAnnotateScheduleFigure3(t *testing.T) {
	mesh, g, _, res := paperRun(t, mapA)
	out := AnnotateSchedule(mesh, g, mapA, res)
	// Spot-check paper annotations, including the starred contended
	// packet and an idle router-less tile list.
	for _, want := range []string{
		"40(B>F):[11,52]",    // router t1
		"*15(A>F):[46,69]",   // contended, starred
		"*15(A>F):[55,70]",   // link t1->t3
		"15(F>B):[85,100]",   // core-in B
		"core-out E@t4",      // core link naming
		"router t1 (B)",      // occupant naming
		"texec = 100 cycles", // header
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("annotation missing %q:\n%s", want, out)
		}
	}
}

func TestAnnotateCWMFigure2(t *testing.T) {
	mesh, g, cfg, _ := paperRun(t, mapA)
	cwm, err := core.NewCWM(mesh, cfg, energy.PaperExample(), g.ToCWG())
	if err != nil {
		t.Fatal(err)
	}
	rb, lb, _, err := cwm.Traffic(mapA)
	if err != nil {
		t.Fatal(err)
	}
	out := AnnotateCWM(mesh, g.ToCWG(), mapA, rb, lb, 1e-12, 1e-12)
	for _, want := range []string{
		"[t1 B:85]", "[t2 A:65]", "[t3 F:70]", "[t4 E:35]",
		"t1->t3: 55 bits",
		"EDyNoC = 390 pJ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("CWM annotation missing %q:\n%s", want, out)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	out := Table([]string{"NoC", "ETR"}, [][]string{{"3x2", "36%"}, {"12x10", "48%"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "NoC") || !strings.Contains(lines[0], "ETR") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[3], "12x10") {
		t.Fatalf("row: %q", lines[3])
	}
	// Ragged rows must not panic.
	_ = Table([]string{"a", "b", "c"}, [][]string{{"1"}, {"1", "2", "3", "4"}})
}

func TestMappingGrid(t *testing.T) {
	mesh, g, _, _ := paperRun(t, mapA)
	out := MappingGrid(mesh, func(c model.CoreID) string { return g.CoreName(c) }, mapA)
	if !strings.Contains(out, "[B][A]") || !strings.Contains(out, "[F][E]") {
		t.Fatalf("grid:\n%s", out)
	}
	// Partial mapping shows empty tiles.
	partial := MappingGrid(mesh, func(c model.CoreID) string { return g.CoreName(c) }, mapping.Mapping{0, 3})
	if !strings.Contains(partial, "[-]") {
		t.Fatalf("partial grid:\n%s", partial)
	}
}

func TestSortedPacketIDs(t *testing.T) {
	_, _, _, res := paperRun(t, mapA)
	ids := SortedPacketIDs(res)
	for i := 1; i < len(ids); i++ {
		a, b := res.Packets[ids[i-1]], res.Packets[ids[i]]
		if a.Start > b.Start {
			t.Fatalf("not sorted: %v", ids)
		}
		if a.Start == b.Start && ids[i-1] > ids[i] {
			t.Fatalf("tie not broken by ID: %v", ids)
		}
	}
}
