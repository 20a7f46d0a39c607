package exp

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/search"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wormhole"
)

// RenderTable1 regenerates Table 1: the aggregate characteristics of the
// workload suite, grouped by NoC size like the paper.
func RenderTable1(suite []Workload) string {
	bySize := BySize(suite)
	headers := []string{"NoC size", "Number of cores", "Number of packets", "Total volume of bits", "instances"}
	var rows [][]string
	for _, size := range SizeOrder {
		ws := bySize[size]
		if len(ws) == 0 {
			continue
		}
		var cores, packets, bits, names []string
		for _, w := range ws {
			c := fmt.Sprint(w.G.NumCores())
			if w.PaperCores != w.G.NumCores() {
				c = fmt.Sprintf("%d(paper:%d)", w.G.NumCores(), w.PaperCores)
			}
			cores = append(cores, c)
			packets = append(packets, fmt.Sprint(w.G.NumPackets()))
			bits = append(bits, fmt.Sprint(w.G.TotalBits()))
			tag := w.Name
			if !w.Embedded {
				tag += "*"
			}
			names = append(names, tag)
		}
		rows = append(rows, []string{
			strings.Replace(size, "x", " x ", 1),
			strings.Join(cores, "; "),
			strings.Join(packets, "; "),
			strings.Join(bits, "; "),
			strings.Join(names, "; "),
		})
	}
	return "Table 1 — summary of NoC/application features (* = TGFF-like random benchmark)\n" +
		trace.Table(headers, rows)
}

// FigureExample bundles the Figure 1-5 regeneration: the worked example's
// graphs, both mappings, CWM and CDCM annotations and timing diagrams.
type FigureExample struct {
	Mesh     *topology.Mesh
	Cfg      noc.Config
	Tech     energy.Tech
	G        *model.CDCG
	MapA     mapping.Mapping
	MapB     mapping.Mapping
	CWM      *core.CWM
	CDCM     *core.CDCM
	ResA     *wormhole.Result
	ResB     *wormhole.Result
	MetricsA core.Metrics
	MetricsB core.Metrics
}

// NewFigureExample sets up the paper's Section 4.1 example.
func NewFigureExample() (*FigureExample, error) {
	mesh, err := topology.NewMesh(2, 2)
	if err != nil {
		return nil, err
	}
	f := &FigureExample{
		Mesh: mesh,
		Cfg:  noc.PaperExample(),
		Tech: energy.PaperExample(),
		G:    model.PaperExampleCDCG(),
		MapA: mapping.Mapping{1, 0, 3, 2}, // Figure 1(c): B,A / F,E
		MapB: mapping.Mapping{3, 0, 1, 2}, // Figure 1(d): B,E / F,A
	}
	in, err := core.NewInstance(mesh, f.Cfg, f.G, nil)
	if err != nil {
		return nil, err
	}
	f.CWM, f.CDCM = in.CWM(f.Tech), in.CDCM(f.Tech)
	if f.ResA, f.MetricsA, err = f.CDCM.Simulate(f.MapA); err != nil {
		return nil, err
	}
	if f.ResB, f.MetricsB, err = f.CDCM.Simulate(f.MapB); err != nil {
		return nil, err
	}
	return f, nil
}

// RenderFigure1 prints the example CWG and CDCG in DOT plus the two
// mappings.
func (f *FigureExample) RenderFigure1() string {
	var b strings.Builder
	b.WriteString("Figure 1(a) — CWG:\n")
	b.WriteString(f.CWM.G.DOT())
	b.WriteString("\nFigure 1(b) — CDCG:\n")
	b.WriteString(f.G.DOT())
	name := func(c model.CoreID) string { return f.G.CoreName(c) }
	b.WriteString("\nFigure 1(c) — mapping (a):\n")
	b.WriteString(trace.MappingGrid(f.Mesh, name, f.MapA))
	b.WriteString("\nFigure 1(d) — mapping (b):\n")
	b.WriteString(trace.MappingGrid(f.Mesh, name, f.MapB))
	return b.String()
}

// RenderFigure2 prints the CWM energy annotation of both mappings.
func (f *FigureExample) RenderFigure2() (string, error) {
	var b strings.Builder
	for _, m := range []struct {
		name string
		mp   mapping.Mapping
	}{{"(a)", f.MapA}, {"(b)", f.MapB}} {
		rb, lb, _, err := f.CWM.Traffic(m.mp)
		if err != nil {
			return "", err
		}
		cost, err := f.CWM.Cost(m.mp)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "Figure 2%s — CWM estimation for mapping %s (energy = %.4g pJ):\n",
			m.name, m.name, cost*1e12)
		b.WriteString(trace.AnnotateCWM(f.Mesh, f.CWM.G, m.mp, rb, lb, f.Tech.ERbit, f.Tech.ELbit))
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// RenderFigure3 prints the CDCM occupancy annotation of both mappings.
func (f *FigureExample) RenderFigure3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3(a) — CDCM, mapping (a): energy = %.4g pJ, texec = %.4g ns\n",
		f.MetricsA.Total()*1e12, f.MetricsA.ExecNS)
	b.WriteString(trace.AnnotateSchedule(f.Mesh, f.G, f.MapA, f.ResA))
	fmt.Fprintf(&b, "\nFigure 3(b) — CDCM, mapping (b): energy = %.4g pJ, texec = %.4g ns\n",
		f.MetricsB.Total()*1e12, f.MetricsB.ExecNS)
	b.WriteString(trace.AnnotateSchedule(f.Mesh, f.G, f.MapB, f.ResB))
	return b.String()
}

// RenderFigure4 prints the timing diagram of mapping (a).
func (f *FigureExample) RenderFigure4() string {
	return "Figure 4 — timing for the Figure 3(a) mapping:\n" +
		trace.Gantt(f.G, f.Cfg, f.ResA, 100)
}

// RenderFigure5 prints the timing diagram of mapping (b).
func (f *FigureExample) RenderFigure5() string {
	return "Figure 5 — timing for the Figure 3(b) mapping:\n" +
		trace.Gantt(f.G, f.Cfg, f.ResB, 100)
}

// ESvsSAOutcome is the optimality check on one workload.
type ESvsSAOutcome struct {
	Workload  string
	Strategy  core.Strategy
	Space     int64
	ESCost    float64
	SACost    float64
	SAMatches bool // SA found a cost within 0.1% of the certified optimum
}

// RunESvsSA reproduces the Section-5 claim that exhaustive search and
// simulated annealing reach the same results on small NoCs. Workloads
// whose placement space exceeds maxEvals are skipped (the paper itself
// notes ES becomes unfeasible beyond small sizes). A non-nil ctx cancels
// the searches; nil runs to the end.
func RunESvsSA(ctx context.Context, suite []Workload, cfg noc.Config, maxEvals int64, seed int64) ([]ESvsSAOutcome, error) {
	if cfg == (noc.Config{}) {
		cfg = noc.Default()
	}
	var outs []ESvsSAOutcome
	for _, w := range suite {
		space := mapping.Count(w.G.NumCores(), w.MeshW*w.MeshH)
		if space <= 0 || space > maxEvals {
			continue
		}
		in, err := w.Instance(cfg)
		if err != nil {
			return nil, err
		}
		for _, strat := range []core.Strategy{core.StrategyCWM, core.StrategyCDCM} {
			es, err := in.Explore(strat, energy.Tech007, core.Options{Method: core.MethodES, Ctx: ctx})
			if err != nil {
				return nil, fmt.Errorf("exp: ES %s on %s: %w", strat, w.Name, err)
			}
			sa, err := in.Explore(strat, energy.Tech007, core.Options{Method: core.MethodSA, Seed: seed, Ctx: ctx})
			if err != nil {
				return nil, fmt.Errorf("exp: SA %s on %s: %w", strat, w.Name, err)
			}
			outs = append(outs, ESvsSAOutcome{
				Workload:  w.Name,
				Strategy:  strat,
				Space:     space,
				ESCost:    es.Search.BestCost,
				SACost:    sa.Search.BestCost,
				SAMatches: sa.Search.BestCost <= es.Search.BestCost*1.001,
			})
		}
	}
	return outs, nil
}

// RenderESvsSA formats the optimality check.
func RenderESvsSA(outs []ESvsSAOutcome) string {
	headers := []string{"workload", "model", "space", "ES cost (pJ)", "SA cost (pJ)", "SA optimal"}
	var rows [][]string
	for _, o := range outs {
		rows = append(rows, []string{
			o.Workload, o.Strategy.String(), fmt.Sprint(o.Space),
			fmt.Sprintf("%.4g", o.ESCost*1e12), fmt.Sprintf("%.4g", o.SACost*1e12),
			fmt.Sprint(o.SAMatches),
		})
	}
	return "ES vs SA — small-NoC optimality check (Section 5)\n" + trace.Table(headers, rows)
}

// CPUTimeOutcome measures evaluator cost on one workload.
type CPUTimeOutcome struct {
	Workload string
	// NCC is the number of core-to-core communications (CWG edges); NDP
	// the number of dependences+packets (CDCG size) — the complexity
	// drivers named in Section 5.
	NCC, NDP int
	// CWMEvalNS and CDCMEvalNS are mean per-evaluation wall times.
	CWMEvalNS, CDCMEvalNS float64
	// Ratio is CDCMEvalNS/CWMEvalNS.
	Ratio float64
}

// RunCPUTime measures the per-evaluation CPU cost of both models across
// the suite (the paper: "the worst case for CDCM took only 23% more CPU
// time than for CWM"). iters evaluations are timed per model per workload.
func RunCPUTime(suite []Workload, cfg noc.Config, iters int) ([]CPUTimeOutcome, error) {
	if cfg == (noc.Config{}) {
		cfg = noc.Default()
	}
	if iters <= 0 {
		iters = 50
	}
	var outs []CPUTimeOutcome
	for _, w := range suite {
		in, err := w.Instance(cfg)
		if err != nil {
			return nil, err
		}
		cwm, cdcm := in.CWM(energy.Tech007), in.CDCM(energy.Tech007)
		mp := mapping.Identity(w.G.NumCores())
		// Warm the CDCM scratch before timing.
		if _, err := cdcm.Cost(mp); err != nil {
			return nil, err
		}
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := cwm.Cost(mp); err != nil {
				return nil, err
			}
		}
		cwmNS := float64(time.Since(t0).Nanoseconds()) / float64(iters)
		t0 = time.Now()
		for i := 0; i < iters; i++ {
			if _, err := cdcm.Cost(mp); err != nil {
				return nil, err
			}
		}
		cdcmNS := float64(time.Since(t0).Nanoseconds()) / float64(iters)
		ratio := 0.0
		if cwmNS > 0 {
			ratio = cdcmNS / cwmNS
		}
		outs = append(outs, CPUTimeOutcome{
			Workload:  w.Name,
			NCC:       len(cwm.G.Edges),
			NDP:       w.G.NumPackets() + len(w.G.Deps),
			CWMEvalNS: cwmNS, CDCMEvalNS: cdcmNS, Ratio: ratio,
		})
	}
	return outs, nil
}

// RenderCPUTime formats the evaluator cost comparison.
func RenderCPUTime(outs []CPUTimeOutcome) string {
	headers := []string{"workload", "NCC", "NDP", "NDP/NCC", "CWM eval", "CDCM eval", "CDCM/CWM"}
	var rows [][]string
	sorted := append([]CPUTimeOutcome(nil), outs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].NDP < sorted[j].NDP })
	for _, o := range sorted {
		rows = append(rows, []string{
			o.Workload, fmt.Sprint(o.NCC), fmt.Sprint(o.NDP),
			fmt.Sprintf("%.1f", float64(o.NDP)/float64(o.NCC)),
			fmt.Sprintf("%.1fus", o.CWMEvalNS/1e3),
			fmt.Sprintf("%.1fus", o.CDCMEvalNS/1e3),
			fmt.Sprintf("%.1fx", o.Ratio),
		})
	}
	return "CPU time — CWM vs CDCM evaluation cost (Section 5)\n" + trace.Table(headers, rows)
}

// VsRandomOutcome compares guided search against random mapping.
type VsRandomOutcome struct {
	Workload string
	// RandomCost is the mean CWM energy over sampled random mappings;
	// GuidedCost the SA result — reference [4] reports >=60% savings.
	RandomCost, GuidedCost float64
	Saving                 float64
}

// RunVsRandom reproduces the related-work claim of Hu/Marculescu ([4]):
// energy-aware mapping search beats random mapping by a wide margin. A
// non-nil ctx cancels the annealer; nil runs to the end.
func RunVsRandom(ctx context.Context, suite []Workload, cfg noc.Config, samples int, seed int64) ([]VsRandomOutcome, error) {
	if cfg == (noc.Config{}) {
		cfg = noc.Default()
	}
	if samples <= 0 {
		samples = 100
	}
	var outs []VsRandomOutcome
	for _, w := range suite {
		in, err := w.Instance(cfg)
		if err != nil {
			return nil, err
		}
		mesh, cwm := in.Mesh, in.CWM(energy.Tech007)
		// Mean (not best) random-mapping energy: the reference point of
		// [4] is "a random mapping", not the best of many.
		mean, err := meanRandomCost(mesh, cwm, w.G.NumCores(), samples, seed)
		if err != nil {
			return nil, err
		}
		sa := &search.Annealer{
			Problem: search.Problem{Mesh: mesh, NumCores: w.G.NumCores(), Obj: cwm},
			Seed:    seed,
			Ctx:     ctx,
		}
		saRes, err := sa.Run()
		if err != nil {
			return nil, err
		}
		saving := 0.0
		if mean > 0 {
			saving = (mean - saRes.BestCost) / mean
		}
		outs = append(outs, VsRandomOutcome{
			Workload: w.Name, RandomCost: mean, GuidedCost: saRes.BestCost, Saving: saving,
		})
	}
	return outs, nil
}

func meanRandomCost(mesh *topology.Mesh, obj search.Objective, cores, samples int, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for i := 0; i < samples; i++ {
		mp, err := mapping.Random(rng, cores, mesh.NumTiles())
		if err != nil {
			return 0, err
		}
		c, err := obj.Cost(mp)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum / float64(samples), nil
}

// RenderVsRandom formats the guided-vs-random comparison.
func RenderVsRandom(outs []VsRandomOutcome) string {
	headers := []string{"workload", "random mean (pJ)", "SA best (pJ)", "saving"}
	var rows [][]string
	var avg float64
	for _, o := range outs {
		rows = append(rows, []string{
			o.Workload,
			fmt.Sprintf("%.4g", o.RandomCost*1e12),
			fmt.Sprintf("%.4g", o.GuidedCost*1e12),
			fmt.Sprintf("%.1f %%", o.Saving*100),
		})
		avg += o.Saving
	}
	if len(outs) > 0 {
		rows = append(rows, []string{"average", "", "", fmt.Sprintf("%.1f %%", avg/float64(len(outs))*100)})
	}
	return "Guided mapping vs random mapping (claim of ref. [4]: >60% savings)\n" +
		trace.Table(headers, rows)
}
