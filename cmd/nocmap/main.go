// Command nocmap maps one application onto a mesh or torus NoC, planar
// or 3-D.
//
// The application is a CDCG in JSON (see internal/model; cmd/nocgen
// produces them) or in the line-oriented text format, or the built-in
// paper example with -demo. Input format is sniffed from the content by
// default (-format auto), so extension-less and piped files work; -app -
// reads standard input. Examples:
//
//	nocmap -app app.json -mesh 3x3 -model cdcm -method sa -seed 7 -gantt
//	nocmap -app app.json -mesh 2x2x4 -routing xyz -model cdcm
//	nocmap -demo -mesh 3x3 -model resilience -faultrate 0.15 -faultseed 2
//	nocgen -seed 3 | nocmap -app - -json
//
// The first explores a 3x3 mesh under the CDCM objective with simulated
// annealing and prints the winning mapping, its metrics and a timing
// diagram; the second explores a 2x2x4 stacked mesh with dimension-ordered
// XYZ routing (vertical TSV links priced by the 3-D energy/latency
// profile). -depth D stacks a planar -mesh into D layers; -topology torus
// wraps every dimension.
//
// -json emits the machine-readable result instead of the human report —
// the exact schema the nocd daemon serves (internal/service.Result), so
// CLI runs and daemon jobs are directly comparable; for a fixed instance
// and seed the result object is byte-identical between the two.
//
// Explorations under -model cwm price candidate swaps incrementally
// (search.DeltaObjective: O(deg) per proposed move instead of re-walking
// the whole communication graph) with bit-identical results; -model cdcm
// always runs the full wormhole simulation per candidate, which is the
// model's point.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/trace"
)

// options collects the CLI flags; run is kept flag-free so tests drive it
// directly.
type options struct {
	appPath    string
	demo       bool
	mesh       string
	topo       string
	depth      int
	model      string
	method     string
	tech       string
	routing    string
	seed       int64
	gantt      bool
	annotate   bool
	jsonOut    bool
	format     string
	flits      int
	restarts   int
	frontSize  int
	faultRate  float64
	faultSeed  int64
	greedySeed bool
	surrogate  bool
	surrSamp   int
	workers    int
	cpuProfile string
	memProfile string
	stdin      io.Reader
	stdout     io.Writer
}

func main() {
	var o options
	flag.StringVar(&o.appPath, "app", "", "CDCG file, - for stdin (or use -demo)")
	flag.BoolVar(&o.demo, "demo", false, "use the paper's Figure-1 example application")
	flag.StringVar(&o.mesh, "mesh", "", "grid dimensions WxH or WxHxD (default: smallest square fitting the cores)")
	flag.IntVar(&o.depth, "depth", 0, "stack a WxH -mesh into D layers (alternative to the WxHxD spec; 0 = 1 layer)")
	flag.StringVar(&o.topo, "topology", "mesh", "grid family: mesh or torus")
	flag.StringVar(&o.model, "model", "cdcm", "mapping model: cwm, cdcm, pareto (multi-objective front) or resilience (fault-aware, needs -faultrate)")
	flag.StringVar(&o.method, "method", "sa", "search method: sa, es, random, hill, tabu (-model pareto runs only sa)")
	flag.Int64Var(&o.seed, "seed", 1, "search seed")
	flag.StringVar(&o.tech, "tech", "0.07um", "technology profile: 0.35um, 0.07um or paper")
	flag.StringVar(&o.routing, "routing", "xy", "routing algorithm: xy, yx, xyz, zyx or fa (fault-aware table routing)")
	flag.BoolVar(&o.gantt, "gantt", false, "print the timing diagram of the winning mapping")
	flag.BoolVar(&o.annotate, "annotate", false, "print per-resource occupancy annotations")
	flag.BoolVar(&o.jsonOut, "json", false, "emit the machine-readable result (same schema as the nocd daemon)")
	flag.StringVar(&o.format, "format", "auto", "input format of -app: auto (content sniffing), json or text")
	flag.IntVar(&o.flits, "flitbits", 1, "link width in bits per flit")
	flag.IntVar(&o.restarts, "restarts", 1, "independent SA restarts (seeds seed..seed+n-1, best wins); pareto walks when -model pareto")
	flag.IntVar(&o.frontSize, "frontsize", 0, "bound on the Pareto front of -model pareto (0 = engine default)")
	flag.Float64Var(&o.faultRate, "faultrate", 0, "inject link faults: per-link failure probability (deterministic under -faultseed)")
	flag.Int64Var(&o.faultSeed, "faultseed", 0, "fault-injection seed for -faultrate")
	flag.BoolVar(&o.greedySeed, "greedy", false, "warm-start the search with the deterministic highest-traffic-first placement")
	flag.BoolVar(&o.surrogate, "surrogate", false, "rank SA/pareto candidates on a calibrated surrogate (tier B); survivors and all reported results are exact-repriced")
	flag.IntVar(&o.surrSamp, "surrsamples", 0, "exact simulations used to calibrate the -surrogate predictor (0 = default budget)")
	flag.IntVar(&o.workers, "workers", runtime.NumCPU(), "parallel worker goroutines (results are seed-deterministic for any value)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the exploration to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile (taken after the run) to this file")
	flag.Parse()
	o.stdin = os.Stdin
	o.stdout = os.Stdout
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "nocmap:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.stdout == nil {
		o.stdout = os.Stdout
	}
	if o.jsonOut && (o.gantt || o.annotate) {
		return fmt.Errorf("-json cannot be combined with -gantt or -annotate (diagrams are not part of the JSON schema)")
	}
	switch o.format {
	case "", "auto", "json", "text":
	default:
		// Validated up front so a typo surfaces even on the -demo path,
		// which never reads an input file.
		return fmt.Errorf("unknown -format %q (want auto, json or text)", o.format)
	}
	var g *model.CDCG
	var err error
	switch {
	case o.demo:
		g = model.PaperExampleCDCG()
	case o.appPath != "":
		if g, err = readApp(o.appPath, o.format, o.stdin); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -app FILE or -demo")
	}

	// Resolve flags exactly like a daemon request — one shared validation
	// and defaulting path for CLI and service.
	req := service.Request{
		App:              g,
		Mesh:             o.mesh,
		Topology:         o.topo,
		Depth:            o.depth,
		Routing:          o.routing,
		FlitBits:         o.flits,
		Tech:             o.tech,
		Model:            o.model,
		Method:           o.method,
		Seed:             o.seed,
		Restarts:         o.restarts,
		FrontSize:        o.frontSize,
		FaultRate:        o.faultRate,
		FaultSeed:        o.faultSeed,
		GreedySeed:       o.greedySeed,
		Surrogate:        o.surrogate,
		SurrogateSamples: o.surrSamp,
		Workers:          o.workers,
	}
	in, err := req.Resolve()
	if err != nil {
		// The service prefix is HTTP-facing noise on a CLI.
		return errors.New(strings.TrimPrefix(err.Error(), service.ErrBadRequest.Error()+": "))
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		// Created eagerly so a bad path fails the run up front; the
		// profile itself is written after the exploration completes.
		f, err := os.Create(o.memProfile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "nocmap: -memprofile:", err)
			}
			f.Close()
		}()
	}

	start := time.Now()
	inst, err := core.NewInstance(in.Mesh, in.Cfg, in.G, in.Opts.Faults)
	if err != nil {
		return err
	}
	res, err := inst.Explore(in.Strategy, in.Tech, in.Opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if o.jsonOut {
		return service.WriteCLI(o.stdout, service.NewResult(in, res), elapsed)
	}

	fmt.Fprintf(o.stdout, "application: %s (%d cores, %d packets, %d bits)\n",
		appName(g), g.NumCores(), g.NumPackets(), g.TotalBits())
	mesh := in.Mesh
	dims := fmt.Sprintf("%dx%d", mesh.W(), mesh.H())
	if mesh.D() > 1 {
		dims = fmt.Sprintf("%dx%dx%d", mesh.W(), mesh.H(), mesh.D())
	}
	fmt.Fprintf(o.stdout, "NoC: %s %s, %s routing, %d-bit flits; model %s, search %s (seed %d)\n",
		dims, mesh.Kind(), in.Cfg.Routing, in.Cfg.FlitBits, in.Strategy, in.Method, o.seed)
	fmt.Fprintf(o.stdout, "evaluations: %d, best cost: %.6g pJ\n", res.Search.Evaluations, res.Search.BestCost*1e12)
	fmt.Fprintln(o.stdout, "mapping:")
	fmt.Fprint(o.stdout, trace.MappingGrid(mesh, g.CoreName, res.Best))
	met := res.Metrics
	fmt.Fprintf(o.stdout, "texec = %d cycles (%.4g ns), contention = %d cycles\n",
		met.ExecCycles, met.ExecNS, met.ContentionCycles)
	fmt.Fprintf(o.stdout, "energy (%s): dynamic %.6g pJ + static %.6g pJ = %.6g pJ (static share %.1f %%)\n",
		in.Tech.Name, met.Energy.Dynamic*1e12, met.Energy.Static*1e12,
		met.Total()*1e12, met.Energy.StaticShare()*100)

	if res.Front != nil {
		fmt.Fprintf(o.stdout, "\nPareto front (%d points, axes %s):\n",
			len(res.Front.Points), strings.Join(res.Front.Axes, ", "))
		headers := append(append([]string{"#"}, res.Front.Axes...), "ENoC (pJ)", "mapping")
		rows := make([][]string, len(res.Front.Points))
		for i, p := range res.Front.Points {
			row := []string{fmt.Sprintf("%d", i+1)}
			for _, c := range p.Components {
				row = append(row, fmt.Sprintf("%.6g", c))
			}
			row = append(row, fmt.Sprintf("%.6g", p.Cost*1e12), p.Mapping.String())
			rows[i] = row
		}
		fmt.Fprint(o.stdout, trace.Table(headers, rows))
	}

	if sc := res.Resilience; sc != nil {
		fmt.Fprintf(o.stdout, "\nresilience over faults [%s]: score %.1f, worst fault %s (texec %d cycles, +%d), %d unreachable\n",
			sc.FaultKey, sc.Score, sc.WorstElement, sc.WorstExecCycles, sc.WorstExecCycles-sc.BaseExecCycles, sc.Unreachable)
		headers := []string{"element", "texec (cy)", "dt (cy)", "dE (pJ)", "note"}
		rows := make([][]string, len(sc.Impacts))
		for i, imp := range sc.Impacts {
			note := ""
			if imp.Unreachable {
				note = "unreachable (penalised)"
			}
			rows[i] = []string{imp.Element, fmt.Sprint(imp.ExecCycles),
				fmt.Sprint(imp.DeltaCycles), fmt.Sprintf("%.5g", imp.DeltaJ*1e12), note}
		}
		fmt.Fprint(o.stdout, trace.Table(headers, rows))
		for _, rec := range sc.Recommendations {
			fmt.Fprintf(o.stdout, "note: %s\n", rec)
		}
	}

	if o.gantt || o.annotate {
		raw, _, err := inst.CDCM(in.Tech).Simulate(res.Best)
		if err != nil {
			return err
		}
		if o.gantt {
			fmt.Fprintln(o.stdout)
			fmt.Fprint(o.stdout, trace.Gantt(g, in.Cfg, raw, 100))
		}
		if o.annotate {
			fmt.Fprintln(o.stdout)
			fmt.Fprint(o.stdout, trace.AnnotateSchedule(mesh, g, res.Best, raw))
		}
	}
	return nil
}

func appName(g *model.CDCG) string {
	if g.Name != "" {
		return g.Name
	}
	return "(unnamed)"
}

// readApp loads the application from a file or stdin ("-") in the given
// format: "json", "text", or "auto"/"" — extension first (.json), then a
// content sniff, so extension-less and piped files decode correctly.
func readApp(path, format string, stdin io.Reader) (*model.CDCG, error) {
	if path == "-" {
		if stdin == nil {
			stdin = os.Stdin
		}
		return decodeApp(stdin, "", format)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeApp(f, path, format)
}

func decodeApp(r io.Reader, name, format string) (*model.CDCG, error) {
	switch format {
	case "json":
		return model.ReadCDCG(r)
	case "text":
		return model.ParseText(r)
	case "", "auto":
		if strings.HasSuffix(name, ".json") {
			return model.ReadCDCG(r)
		}
		br := bufio.NewReader(r)
		isJSON, err := sniffJSON(br)
		if err != nil {
			return nil, err
		}
		if isJSON {
			return model.ReadCDCG(br)
		}
		return model.ParseText(br)
	default:
		return nil, fmt.Errorf("unknown -format %q (want auto, json or text)", format)
	}
}

// sniffJSON reports whether the stream opens (after whitespace) with '{'
// — a CDCG JSON object; the line-oriented text grammar starts with a
// directive word. Leading whitespace is consumed (it is insignificant to
// both grammars), which keeps the sniff independent of the reader's
// buffer size; the deciding byte is unread.
func sniffJSON(br *bufio.Reader) (bool, error) {
	for {
		c, err := br.ReadByte()
		if err == io.EOF {
			return false, nil // empty input: let the text parser report it
		}
		if err != nil {
			return false, err
		}
		switch c {
		case ' ', '\t', '\r', '\n':
			continue
		default:
			return c == '{', br.UnreadByte()
		}
	}
}
