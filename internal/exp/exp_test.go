package exp

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/noc"
)

// TestTable1SuiteMatchesPaper verifies every published (NoC size, cores,
// packets, bits) triple of Table 1 is regenerated exactly.
func TestTable1SuiteMatchesPaper(t *testing.T) {
	suite, err := Table1Suite()
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 18 {
		t.Fatalf("suite has %d workloads, want 18", len(suite))
	}
	type row struct {
		size    string
		cores   int
		packets int
		bits    int64
	}
	want := []row{
		{"3x2", 5, 43, 78817}, {"3x2", 6, 17, 174}, {"3x2", 6, 43, 49003},
		{"2x4", 5, 16, 1600}, {"2x4", 7, 33, 23235}, {"2x4", 8, 18, 5930},
		{"3x3", 7, 16, 1600}, {"3x3", 9, 18, 1860}, {"3x3", 9, 32, 43120},
		{"2x5", 8, 24, 2215}, {"2x5", 9, 51, 23244}, {"2x5", 10, 22, 322221},
		{"3x4", 10, 15, 3100}, {"3x4", 12, 25, 2578920}, {"3x4", 12, 88, 115778}, // paper: 14 cores (erratum)
		{"8x8", 62, 344, 9799200},
		{"10x10", 93, 415, 562565990},
		{"12x10", 99, 446, 680006120},
	}
	have := map[row]int{}
	for _, w := range suite {
		if err := w.G.Validate(); err != nil {
			t.Errorf("%s invalid: %v", w.Name, err)
		}
		have[row{w.NoCSize(), w.G.NumCores(), w.G.NumPackets(), w.G.TotalBits()}]++
		if w.G.NumCores() > w.MeshW*w.MeshH {
			t.Errorf("%s oversubscribes its %s mesh", w.Name, w.NoCSize())
		}
	}
	for _, r := range want {
		if have[r] == 0 {
			t.Errorf("missing workload %+v", r)
		}
		have[r]--
	}
}

func TestTable1SuiteEmbeddedCount(t *testing.T) {
	suite, err := Table1Suite()
	if err != nil {
		t.Fatal(err)
	}
	var embedded int
	for _, w := range suite {
		if w.Embedded {
			embedded++
		}
	}
	// The paper: "4 embedded applications ... with some variations, for a
	// total of 8 embedded applications".
	if embedded != 8 {
		t.Fatalf("embedded instances = %d, want 8", embedded)
	}
	// The erratum instance is recorded.
	var found bool
	for _, w := range suite {
		if w.PaperCores == 14 && w.G.NumCores() == 12 {
			found = true
		}
	}
	if !found {
		t.Fatal("the 14-core erratum instance is not recorded")
	}
}

func TestRenderTable1(t *testing.T) {
	suite, err := Table1Suite()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTable1(suite)
	for _, want := range []string{"3 x 2", "12 x 10", "680006120", "12(paper:14)", "fft8"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 rendering missing %q:\n%s", want, out)
		}
	}
}

func TestFigureExampleReproducesPaper(t *testing.T) {
	f, err := NewFigureExample()
	if err != nil {
		t.Fatal(err)
	}
	if f.MetricsA.ExecCycles != 100 || f.MetricsB.ExecCycles != 90 {
		t.Fatalf("texec = %d/%d, want 100/90", f.MetricsA.ExecCycles, f.MetricsB.ExecCycles)
	}
	fig1 := f.RenderFigure1()
	if !strings.Contains(fig1, "digraph cwg") || !strings.Contains(fig1, "[B][A]") {
		t.Fatalf("Figure 1 incomplete:\n%s", fig1)
	}
	fig2, err := f.RenderFigure2()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig2, "energy = 390 pJ") {
		t.Fatalf("Figure 2 missing 390 pJ:\n%s", fig2)
	}
	// Both mappings identical under CWM: 390 appears for (a) and (b).
	if strings.Count(fig2, "energy = 390 pJ") != 2 {
		t.Fatalf("Figure 2 should show 390 pJ twice:\n%s", fig2)
	}
	fig3 := f.RenderFigure3()
	for _, want := range []string{"energy = 400 pJ", "texec = 100 ns", "energy = 399 pJ", "texec = 90 ns", "*15(A>F):[46,69]"} {
		if !strings.Contains(fig3, want) {
			t.Fatalf("Figure 3 missing %q:\n%s", want, fig3)
		}
	}
	if !strings.Contains(f.RenderFigure4(), "texec = 100 cycles") {
		t.Fatal("Figure 4 missing texec")
	}
	if !strings.Contains(f.RenderFigure5(), "texec = 90 cycles") {
		t.Fatal("Figure 5 missing texec")
	}
}

// smallSuite trims the Table-1 suite for fast protocol tests.
func smallSuite(t *testing.T, maxTiles int) []Workload {
	t.Helper()
	suite, err := Table1Suite()
	if err != nil {
		t.Fatal(err)
	}
	var out []Workload
	for _, w := range suite {
		if w.MeshW*w.MeshH <= maxTiles {
			out = append(out, w)
		}
	}
	return out
}

func TestRunTable2SmallSizes(t *testing.T) {
	suite := smallSuite(t, 8)[:3] // 3x2 row + one 2x4
	rep, err := RunTable2(suite, Table2Options{
		Search: core.Options{Method: core.MethodSA, TempSteps: 12, MovesPerTemp: 30},
		Seeds:  []int64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != len(suite)*2 {
		t.Fatalf("outcomes = %d, want %d", len(rep.Outcomes), len(suite)*2)
	}
	if rep.Average.Runs != len(rep.Outcomes) {
		t.Fatalf("average over %d runs, want %d", rep.Average.Runs, len(rep.Outcomes))
	}
	for _, o := range rep.Outcomes {
		if o.CWMExecCycles <= 0 || o.CDCMExecCycles <= 0 {
			t.Fatalf("missing exec cycles: %+v", o)
		}
		// CDCM optimises ENoC at 0.07um; it can trade a little dynamic
		// energy for time, but must not be catastrophically worse.
		if o.ECS["0.07um"] < -0.5 {
			t.Fatalf("CDCM catastrophically worse: %+v", o)
		}
	}
	out := rep.Render()
	for _, want := range []string{"Table 2", "ETR", "ECS 0.07um", "average", "static"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable2MaxTilesFilter(t *testing.T) {
	suite := smallSuite(t, 9)
	rep, err := RunTable2(suite, Table2Options{
		Search:   core.Options{Method: core.MethodSA, TempSteps: 6, MovesPerTemp: 10},
		MaxTiles: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Outcomes {
		if o.NoCSize != "3x2" {
			t.Fatalf("filter leaked %s", o.NoCSize)
		}
	}
}

func TestRunESvsSA(t *testing.T) {
	suite := smallSuite(t, 6) // 3x2 instances: spaces 720, 720, 720
	outs, err := RunESvsSA(nil, suite, noc.Config{}, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(suite)*2 {
		t.Fatalf("outcomes = %d, want %d", len(outs), len(suite)*2)
	}
	for _, o := range outs {
		if o.SACost < o.ESCost*(1-1e-9) {
			t.Fatalf("SA beat certified ES optimum: %+v", o)
		}
		if !o.SAMatches {
			t.Logf("note: SA missed the optimum on %s/%s (%.4g vs %.4g)",
				o.Workload, o.Strategy, o.SACost, o.ESCost)
		}
	}
	if !strings.Contains(RenderESvsSA(outs), "ES vs SA") {
		t.Fatal("render broken")
	}
}

func TestRunCPUTime(t *testing.T) {
	suite := smallSuite(t, 8)[:2]
	outs, err := RunCPUTime(suite, noc.Config{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.NCC <= 0 || o.NDP <= 0 || o.NDP < o.NCC {
			t.Fatalf("bad complexity counts: %+v", o)
		}
		if o.CDCMEvalNS <= 0 || o.CWMEvalNS <= 0 {
			t.Fatalf("bad timings: %+v", o)
		}
	}
	if !strings.Contains(RenderCPUTime(outs), "NDP/NCC") {
		t.Fatal("render broken")
	}
}

func TestRunVsRandom(t *testing.T) {
	suite := smallSuite(t, 6)[:1]
	outs, err := RunVsRandom(nil, suite, noc.Config{}, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	o := outs[0]
	if o.GuidedCost > o.RandomCost {
		t.Fatalf("SA worse than the random-mapping mean: %+v", o)
	}
	if o.Saving <= 0 {
		t.Fatalf("no saving vs random: %+v", o)
	}
	if !strings.Contains(RenderVsRandom(outs), "average") {
		t.Fatal("render broken")
	}
}

func TestBySizeGrouping(t *testing.T) {
	suite, err := Table1Suite()
	if err != nil {
		t.Fatal(err)
	}
	groups := BySize(suite)
	if len(groups["3x2"]) != 3 || len(groups["8x8"]) != 1 {
		t.Fatalf("grouping wrong: %d, %d", len(groups["3x2"]), len(groups["8x8"]))
	}
	var total int
	for _, size := range SizeOrder {
		total += len(groups[size])
	}
	if total != 18 {
		t.Fatalf("size order covers %d workloads", total)
	}
}

func TestWorkloadAccessors(t *testing.T) {
	w := Workload{Name: "x", MeshW: 3, MeshH: 2, G: model.PaperExampleCDCG(), PaperCores: 4}
	if w.NoCSize() != "3x2" {
		t.Fatalf("NoCSize = %q", w.NoCSize())
	}
	mesh, err := w.Mesh()
	if err != nil || mesh.NumTiles() != 6 {
		t.Fatalf("Mesh: %v", err)
	}
}
