package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/service"
)

func TestParseMeshExplicit(t *testing.T) {
	m, err := service.ParseMesh("3x2", "mesh", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.W() != 3 || m.H() != 2 {
		t.Fatalf("mesh = %dx%d", m.W(), m.H())
	}
}

func TestParseMeshAuto(t *testing.T) {
	cases := []struct{ cores, w, h int }{
		{4, 2, 2},
		{5, 3, 2},
		{9, 3, 3},
		{10, 4, 3},
		{1, 1, 1},
	}
	for _, tc := range cases {
		m, err := service.ParseMesh("", "mesh", 0, tc.cores)
		if err != nil {
			t.Fatalf("cores %d: %v", tc.cores, err)
		}
		if m.W() != tc.w || m.H() != tc.h {
			t.Errorf("cores %d: mesh %dx%d, want %dx%d", tc.cores, m.W(), m.H(), tc.w, tc.h)
		}
		if m.NumTiles() < tc.cores {
			t.Errorf("cores %d: mesh too small", tc.cores)
		}
	}
}

func TestParseMesh3D(t *testing.T) {
	m, err := service.ParseMesh("2x3x4", "mesh", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.W() != 2 || m.H() != 3 || m.D() != 4 {
		t.Fatalf("mesh = %dx%dx%d", m.W(), m.H(), m.D())
	}
	// -depth stacks a planar spec...
	m, err = service.ParseMesh("2x2", "torus", 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.D() != 4 || m.Kind().String() != "torus" {
		t.Fatalf("mesh = %dx%dx%d %s", m.W(), m.H(), m.D(), m.Kind())
	}
	// ...and must agree with an explicit WxHxD spec.
	if _, err := service.ParseMesh("2x2x2", "mesh", 4, 5); err == nil {
		t.Fatal("conflicting -depth accepted")
	}
	if _, err := service.ParseMesh("2x2", "klein-bottle", 0, 4); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestParseMeshAutoWithDepth(t *testing.T) {
	// Auto-sizing spreads the cores over the requested layers instead of
	// replicating a full planar grid per layer: 16 cores at depth 4 fit a
	// 2x2x4 (16 tiles), not a 4x4x4.
	m, err := service.ParseMesh("", "mesh", 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if m.W() != 2 || m.H() != 2 || m.D() != 4 {
		t.Fatalf("mesh = %dx%dx%d, want 2x2x4", m.W(), m.H(), m.D())
	}
	// Non-dividing core counts still fit: 10 cores over 4 layers needs
	// 3 per layer -> 2x2 layers, 16 tiles.
	m, err = service.ParseMesh("", "mesh", 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTiles() < 10 || m.D() != 4 {
		t.Fatalf("mesh = %dx%dx%d does not fit 10 cores over 4 layers", m.W(), m.H(), m.D())
	}
}

func TestParseMeshErrors(t *testing.T) {
	for _, spec := range []string{"3", "ax2", "3xb", "0x4", "4x4junk", "2x2x4.5", " 2x2", "2x2x2x2"} {
		if _, err := service.ParseMesh(spec, "mesh", 0, 2); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	if _, err := service.ParseMesh("2x2", "mesh", 0, 5); err == nil {
		t.Error("oversubscribed mesh accepted")
	}
}

func TestRunDemo3DEndToEnd(t *testing.T) {
	// The paper demo on a 2x1x2 stacked mesh with XYZ routing, plus
	// diagrams, exercises the TSV path through the whole CLI.
	if err := run(options{demo: true, mesh: "2x1x2", topo: "mesh", model: "cdcm", method: "es",
		tech: "0.07um", routing: "xyz", seed: 1, gantt: true, annotate: true,
		flits: 1, restarts: 2, workers: 2, stdout: io.Discard}); err != nil {
		t.Fatal(err)
	}
	if err := run(options{demo: true, mesh: "2x2", topo: "torus", depth: 2, model: "cwm", method: "sa",
		tech: "0.07um", routing: "zyx", seed: 1, flits: 1, restarts: 2, workers: 2,
		stdout: io.Discard}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDemoEndToEnd(t *testing.T) {
	// Full CLI path: demo app, ES search, paper tech, with diagrams.
	if err := run(options{demo: true, mesh: "2x2", topo: "mesh", model: "cdcm", method: "es",
		tech: "paper", routing: "xy", seed: 1, gantt: true, annotate: true,
		flits: 1, restarts: 2, workers: 2, stdout: io.Discard}); err != nil {
		t.Fatal(err)
	}
	// CWM path too.
	if err := run(options{demo: true, mesh: "2x2", topo: "mesh", model: "cwm", method: "sa",
		tech: "0.07um", routing: "yx", seed: 1, flits: 16, restarts: 2, workers: 2,
		stdout: io.Discard}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFromTextAndJSONFiles(t *testing.T) {
	dir := t.TempDir()
	text := filepath.Join(dir, "app.cdcg")
	if err := os.WriteFile(text, []byte(
		"name t\ncores a b\npacket p1 a b compute=2 bits=9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := options{mesh: "2x1", topo: "mesh", model: "cdcm", method: "es", tech: "paper",
		routing: "xy", seed: 1, flits: 1, restarts: 1, workers: 2, stdout: io.Discard}
	o := base
	o.appPath = text
	if err := run(o); err != nil {
		t.Fatalf("text app: %v", err)
	}
	jsonPath := filepath.Join(dir, "app.json")
	var buf bytes.Buffer
	if err := model.PaperExampleCDCG().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jsonPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	o = base
	o.appPath = jsonPath
	o.mesh = "2x2"
	o.model = "cwm"
	o.method = "sa"
	o.tech = "0.35um"
	if err := run(o); err != nil {
		t.Fatalf("json app: %v", err)
	}
	// A JSON payload under a text extension is fine under -format auto
	// (content sniffing)...
	badPath := filepath.Join(dir, "bad.cdcg")
	if err := os.WriteFile(badPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	o = base
	o.appPath = badPath
	o.mesh = "2x2"
	if err := run(o); err != nil {
		t.Fatalf("JSON under text extension not sniffed: %v", err)
	}
	// ...but an explicit -format text must reject it.
	o.format = "text"
	if err := run(o); err == nil {
		t.Fatal("-format text accepted JSON input")
	}
	// And an explicit -format json must reject the text grammar.
	o = base
	o.appPath = text
	o.format = "json"
	if err := run(o); err == nil {
		t.Fatal("-format json accepted text input")
	}
}

func TestRunFromStdin(t *testing.T) {
	var buf bytes.Buffer
	if err := model.PaperExampleCDCG().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// JSON on stdin, sniffed.
	if err := run(options{appPath: "-", stdin: bytes.NewReader(buf.Bytes()), mesh: "2x2",
		model: "cwm", method: "sa", tech: "paper", routing: "xy", seed: 1,
		flits: 1, restarts: 1, workers: 1, stdout: io.Discard}); err != nil {
		t.Fatalf("stdin json: %v", err)
	}
	// Text on stdin, sniffed — through more leading whitespace than a
	// bufio.Reader buffers, which the sniffer must consume, not Peek.
	text := strings.Repeat(" \n", 3000) + "name t\ncores a b\npacket p1 a b compute=2 bits=9\n"
	if err := run(options{appPath: "-", stdin: strings.NewReader(text), mesh: "2x1",
		model: "cdcm", method: "es", tech: "paper", routing: "xy", seed: 1,
		flits: 1, restarts: 1, workers: 1, stdout: io.Discard}); err != nil {
		t.Fatalf("stdin text: %v", err)
	}
}

func TestRunJSONOutputSharedSchemaAndDeterminism(t *testing.T) {
	runOnce := func() service.CLIResult {
		t.Helper()
		var out bytes.Buffer
		if err := run(options{demo: true, mesh: "2x2", model: "cwm", method: "sa",
			tech: "0.07um", routing: "xy", seed: 7, flits: 1, restarts: 2, workers: 2,
			jsonOut: true, stdout: &out}); err != nil {
			t.Fatal(err)
		}
		var env service.CLIResult
		if err := json.Unmarshal(out.Bytes(), &env); err != nil {
			t.Fatalf("-json emitted invalid JSON: %v\n%s", err, out.String())
		}
		return env
	}
	a, b := runOnce(), runOnce()
	if a.Result == nil || a.Result.Mapping == nil {
		t.Fatalf("missing result payload: %+v", a)
	}
	if a.Result.Model != "CWM" || a.Result.Method != "SA" || a.Result.Seed != 7 ||
		a.Result.Grid != "2x2x1" || a.Result.Cores != 4 {
		t.Errorf("result metadata wrong: %+v", a.Result)
	}
	if a.Result.TotalJ <= 0 || a.Result.ExecCycles <= 0 || a.Result.Evaluations <= 0 {
		t.Errorf("result numbers implausible: %+v", a.Result)
	}
	// The deterministic contract: the result objects (not the envelopes,
	// which carry wall-clock) are byte-identical across runs.
	ja, _ := json.Marshal(a.Result)
	jb, _ := json.Marshal(b.Result)
	if !bytes.Equal(ja, jb) {
		t.Errorf("repeated -json runs differ:\n%s\n%s", ja, jb)
	}
}

// The -surrogate flag reaches the engine: a tier-B CDCM run reports
// surrogate evaluations alongside exact repricings, keeps the counter
// split summing to Evaluations, and stays byte-deterministic.
func TestRunSurrogateJSON(t *testing.T) {
	runOnce := func() service.CLIResult {
		t.Helper()
		var out bytes.Buffer
		if err := run(options{demo: true, mesh: "2x2", model: "cdcm", method: "sa",
			tech: "0.07um", routing: "xy", seed: 11, flits: 1, restarts: 1, workers: 2,
			surrogate: true, surrSamp: 8, jsonOut: true, stdout: &out}); err != nil {
			t.Fatal(err)
		}
		var env service.CLIResult
		if err := json.Unmarshal(out.Bytes(), &env); err != nil {
			t.Fatalf("-json emitted invalid JSON: %v\n%s", err, out.String())
		}
		return env
	}
	a, b := runOnce(), runOnce()
	r := a.Result
	if r == nil {
		t.Fatalf("missing result payload: %+v", a)
	}
	if r.SurrogateEvals == 0 || r.ExactEvals == 0 {
		t.Errorf("surrogate run did not split evaluations: %+v", r)
	}
	if r.ExactEvals+r.BoundSkips+r.SurrogateEvals != r.Evaluations {
		t.Errorf("tier counters do not sum to evaluations: %+v", r)
	}
	ja, _ := json.Marshal(a.Result)
	jb, _ := json.Marshal(b.Result)
	if !bytes.Equal(ja, jb) {
		t.Errorf("repeated -surrogate runs differ:\n%s\n%s", ja, jb)
	}
}

func TestRunResilienceEndToEnd(t *testing.T) {
	// Rate 0.3 / seed 6 deterministically fails link 2-3 of the 2x2 and
	// keeps the grid connected; the human report must carry the
	// degradation block.
	var out bytes.Buffer
	if err := run(options{demo: true, mesh: "2x2", model: "resilience", method: "es",
		tech: "0.07um", routing: "xy", seed: 1, flits: 1, restarts: 1, workers: 2,
		faultRate: 0.3, faultSeed: 6, stdout: &out}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"resilience over faults [link 2-3]", "score", "dt (cy)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("human report missing %q:\n%s", want, out.String())
		}
	}
	// Faults without a fault-capable objective request are still valid —
	// any model scores its winner over the injected set.
	out.Reset()
	if err := run(options{demo: true, mesh: "2x2", model: "cwm", method: "sa",
		tech: "0.07um", routing: "xy", seed: 1, flits: 1, restarts: 1, workers: 1,
		faultRate: 0.3, faultSeed: 6, stdout: &out}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "resilience over faults") {
		t.Errorf("cwm run with -faultrate missing resilience block:\n%s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	base := options{demo: true, flits: 1, restarts: 1, workers: 1, stdout: io.Discard}
	cases := []struct {
		name string
		mut  func(o options) options
	}{
		{"no app", func(o options) options { o.demo = false; return o }},
		{"bad model", func(o options) options { o.model = "xxx"; return o }},
		{"bad method", func(o options) options { o.method = "xxx"; return o }},
		{"bad tech", func(o options) options { o.tech = "90nm"; return o }},
		{"bad routing", func(o options) options { o.routing = "zz"; return o }},
		{"resilience without faults", func(o options) options { o.model = "resilience"; return o }},
		{"pareto with hill", func(o options) options { o.model, o.method = "pareto", "hill"; return o }},
		{"bad fault rate", func(o options) options { o.faultRate = 1.5; return o }},
		{"bad format", func(o options) options {
			o.demo = false
			o.appPath = "-"
			o.stdin = strings.NewReader("{}")
			o.format = "yaml"
			return o
		}},
		{"missing file", func(o options) options { o.demo = false; o.appPath = "/nonexistent.json"; return o }},
		{"json+gantt", func(o options) options { o.jsonOut = true; o.gantt = true; return o }},
		{"json+annotate", func(o options) options { o.jsonOut = true; o.annotate = true; return o }},
		{"bad format with demo", func(o options) options { o.format = "yaml"; return o }},
	}
	for _, tc := range cases {
		if err := run(tc.mut(base)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestRunWritesProfiles drives the -cpuprofile/-memprofile flags end to
// end and checks both profile files exist and are non-empty.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	if err := run(options{demo: true, mesh: "2x2", topo: "mesh", model: "cdcm", method: "sa",
		tech: "0.07um", routing: "xy", seed: 1, flits: 1, restarts: 1, workers: 1,
		cpuProfile: cpu, memProfile: mem, stdout: io.Discard}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	if err := run(options{demo: true, mesh: "2x2", topo: "mesh", model: "cwm", method: "sa",
		tech: "0.07um", routing: "xy", seed: 1, flits: 1, restarts: 1, workers: 1,
		cpuProfile: filepath.Join(dir, "missing", "cpu.out"), stdout: io.Discard}); err == nil {
		t.Fatal("uncreatable -cpuprofile path accepted")
	}
	if err := run(options{demo: true, mesh: "2x2", topo: "mesh", model: "cwm", method: "sa",
		tech: "0.07um", routing: "xy", seed: 1, flits: 1, restarts: 1, workers: 1,
		memProfile: filepath.Join(dir, "missing", "mem.out"), stdout: io.Discard}); err == nil {
		t.Fatal("uncreatable -memprofile path accepted")
	}
}
