package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
)

// benchmarkJSON is the part of BENCHMARK.json the tests compare.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func mustSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecMatchesBenchmarkJSON keeps spec.json and BENCHMARK.json in step:
// same workloads, and the same metric names, units and directions.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, sp := loadBenchmarkJSON(t), mustSpec(t)
	var got, want []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range sp.Workloads {
		want = append(want, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("spec workload %s has no implementation", w.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads: BENCHMARK.json %v, spec.json %v", got, want)
	}
	got, want = nil, nil
	for _, m := range b.EndToEnd {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range sp.EndToEnd {
		want = append(want, m.Name+" "+m.Unit+" "+m.Better)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json %v, spec.json %v", got, want)
	}
	got, want = nil, nil
	for _, m := range b.PerLayer {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range sp.PerLayer {
		want = append(want, m.Name+" "+m.Unit+" "+m.Better)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer: BENCHMARK.json %v, spec.json %v", got, want)
	}

	// The documentation spec.json adds to BENCHMARK.json is complete.
	var doc struct {
		TuningSeed  int64 `json:"tuning_seed"`
		HeldOutSeed int64 `json:"held_out_seed"`
		Workloads   []struct {
			Name, Why, Loop string
			Clients         int
		}
		EndToEnd []struct{ Name, Kind, Layer string } `json:"end_to_end"`
		PerLayer []struct{ Name, Kind, Layer string } `json:"per_layer"`
	}
	if err := json.Unmarshal(specJSON, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TuningSeed == 0 || doc.HeldOutSeed == 0 || doc.TuningSeed == doc.HeldOutSeed {
		t.Errorf("tuning seed %d, held-out seed %d", doc.TuningSeed, doc.HeldOutSeed)
	}
	for _, w := range doc.Workloads {
		if w.Why == "" || w.Loop != "closed" || w.Clients < 1 {
			t.Errorf("workload %s: why %q, loop %q, clients %d", w.Name, w.Why, w.Loop, w.Clients)
		}
	}
	for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
		if (m.Kind != "host" && m.Kind != "sim" && m.Kind != "count") || m.Layer == "" {
			t.Errorf("metric %s: kind %q, layer %q", m.Name, m.Kind, m.Layer)
		}
	}
}

// lastLine decodes the result line of a run.
func lastLine(t *testing.T, out string) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

// TestPrintedMetricsMatchBenchmarkJSON runs short windows and requires the
// printed metric names and units to be exactly BENCHMARK.json's, with the
// output checks passing.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	b := loadBenchmarkJSON(t)
	cases := []struct {
		workload string
		traced   bool
		want     map[string]string
	}{
		{"scan", false, map[string]string{}},
		{"nocd-mix", false, map[string]string{}},
		{"nocd-mix", true, map[string]string{}},
	}
	for _, m := range b.EndToEnd {
		cases[0].want[m.Name] = m.Unit
		cases[1].want[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		cases[2].want[m.Name] = m.Unit
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := run(&buf, c.workload, 3, 1, c.traced); err != nil {
			t.Fatalf("%s traced=%v: %v", c.workload, c.traced, err)
		}
		r := lastLine(t, buf.String())
		got := map[string]string{}
		for k, v := range r.Metrics {
			got[k] = v.Unit
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s traced=%v printed %v, want %v", c.workload, c.traced, got, c.want)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
				c.workload, c.traced, r.Correct, r.Attempted, r.Failed, buf.String())
		}
	}
}

// TestGeneratorsDeterministic requires every generated input to depend on
// the seed alone.
func TestGeneratorsDeterministic(t *testing.T) {
	rows, err := smallRows()
	if err != nil {
		t.Fatal(err)
	}
	a, err := genMixStream(7, rows)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genMixStream(7, rows)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genMixStream(8, rows)
	if err != nil {
		t.Fatal(err)
	}
	body := func(st *mixStream) []byte {
		var buf bytes.Buffer
		for _, r := range st.reqs {
			data, err := json.Marshal(r.req)
			if err != nil {
				t.Fatal(err)
			}
			buf.WriteString(r.model)
			buf.Write(data)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(body(a), body(b)) {
		t.Error("nocd-mix stream differs between two generations with the same seed")
	}
	if bytes.Equal(body(a), body(c)) {
		t.Error("nocd-mix stream ignores the seed")
	}

	if jobSeed(7, 0, 1) == jobSeed(8, 0, 1) || jobSeed(7, 0, 1) != jobSeed(7, 0, 1) {
		t.Error("jobSeed is not a deterministic function of the seed")
	}
}

// TestMixShares checks the declared nocd-mix shares: every model gets the
// same number of fresh requests on each app kind and meets every row and
// app shape under both technologies, repeats are exactly
// mixRepeats per block of mixBlockSize and copy an earlier fresh request
// within the repeat window, and blocks alternate the technology of their
// fresh requests.
func TestMixShares(t *testing.T) {
	rows, err := smallRows()
	if err != nil {
		t.Fatal(err)
	}
	st, err := genMixStream(11, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.reqs) != mixStreamBlocks*mixBlockSize {
		t.Fatalf("stream has %d requests, want %d", len(st.reqs), mixStreamBlocks*mixBlockSize)
	}
	if len(mixModelNames) != mixModels || len(rows)%mixModels != 0 {
		t.Fatalf("mixModels = %d, but %d model names", mixModels, len(mixModelNames))
	}
	fresh := map[string]int{}
	pairs := map[string]int{} // app (row name or shape) × model × tech
	repeats := 0
	for i, r := range st.reqs {
		if r.target < 0 {
			wantTech := energy.Tech007.Name
			if i/mixBlockSize%2 == 1 {
				wantTech = energy.Tech035.Name
			}
			if r.req.Tech != wantTech {
				t.Errorf("request %d tech %q, want %q", i, r.req.Tech, wantTech)
			}
			kind, app := "row", r.app
			if strings.HasPrefix(r.app, "appgen-") {
				kind, app = "appgen", "shape"+r.app[strings.LastIndex(r.app, "-"):]
			}
			fresh[r.model+" "+kind]++
			pairs[app+" "+r.model+" "+r.req.Tech]++
			continue
		}
		repeats++
		if r.target >= i || i-r.target > mixRepeatWindow || st.reqs[r.target].target >= 0 {
			t.Errorf("request %d repeats %d", i, r.target)
		}
		x, _ := json.Marshal(r.req)
		y, _ := json.Marshal(st.reqs[r.target].req)
		if !bytes.Equal(x, y) || r.model != st.reqs[r.target].model {
			t.Errorf("request %d is not an exact repeat of %d", i, r.target)
		}
	}
	if repeats != mixStreamBlocks*mixRepeats {
		t.Errorf("%d repeats, want %d", repeats, mixStreamBlocks*mixRepeats)
	}
	// Every row and shape meets each model under each technology.
	if len(pairs) != (len(rows)+mixModels)*mixModels*2 {
		t.Errorf("%d distinct (app, model, tech) triples, want %d", len(pairs), (len(rows)+mixModels)*mixModels*2)
	}
	for _, m := range mixModelNames {
		for _, kind := range []string{"row", "appgen"} {
			if fresh[m+" "+kind] != mixStreamBlocks {
				t.Errorf("%s on %s: %d fresh requests, want %d", m, kind, fresh[m+" "+kind], mixStreamBlocks)
			}
		}
	}
}

// TestCorruptedResultFails requires the output checks to count a
// corrupted winner, a broken evaluation split and a replay whose bytes
// differ as failures.
func TestCorruptedResultFails(t *testing.T) {
	inst, err := scanWorkload{}.setup(5)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*scanInst)
	var jobs []scanJob
	for i := 0; i < 4; i++ {
		j := s.jobAt(i)
		rw := s.rows[j.row]
		j.res, j.err = core.Explore(core.StrategyCDCM, rw.mesh, s.cfg, j.tech, rw.G,
			core.Options{Method: j.method, Seed: s.seedOf(j.pass, j.row), Workers: 1})
		if j.err != nil {
			t.Fatal(j.err)
		}
		jobs = append(jobs, j)
	}
	var clean outcome
	if err := s.check(jobs, &clean, true); err != nil {
		t.Fatal(err)
	}
	if clean.failed != 0 {
		t.Fatalf("clean results fail the checks: %v", clean.notes)
	}
	jobs[1].res.Metrics.ExecCycles++
	jobs[2].res.Search.ExactEvals++
	jobs[3].res.Best[0], jobs[3].res.Best[1] = jobs[3].res.Best[1], jobs[3].res.Best[0]
	var bad outcome
	if err := s.check(jobs, &bad, true); err != nil {
		t.Fatal(err)
	}
	if bad.failed != 3 || bad.failedRatio() <= 0 {
		t.Errorf("corrupted scan results: failed=%d ratio=%v, want 3 failures", bad.failed, bad.failedRatio())
	}

	mi, err := mixWorkload{}.setup(5)
	if err != nil {
		t.Fatal(err)
	}
	m := mi.(*mixInst)
	defer m.close()
	var mj []mixJob
	for i := 0; i < mixBlockSize; i++ {
		mj = append(mj, m.do(i, nil))
	}
	var ok outcome
	if err := m.check(0, mj, &ok, false); err != nil {
		t.Fatal(err)
	}
	if ok.failed != 0 {
		t.Fatalf("clean nocd-mix results fail the checks: %v", ok.notes)
	}
	replay := -1
	for i := range mj {
		if m.stream.request(i).target >= 0 {
			replay = i
			break
		}
	}
	if replay < 0 {
		t.Fatal("no repeat in the first block")
	}
	// Same JSON value, different bytes: only the replay check can see it.
	mj[replay].result = append(mj[replay].result, ' ')
	var broken outcome
	if err := m.check(0, mj, &broken, false); err != nil {
		t.Fatal(err)
	}
	if broken.failed != 1 || broken.failedRatio() <= 0 {
		t.Errorf("altered replay: failed=%d, want 1", broken.failed)
	}
	if err := m.close(); err != nil {
		t.Fatal(err)
	}
}

// TestSummarizeTail checks the tail percentile rule: the declared
// percentile while at least ten samples lie beyond it, a lower rung of the
// ladder otherwise.
func TestSummarizeTail(t *testing.T) {
	lat := make([]float64, 300)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	if s := summarize(lat, 95); s.tailPct != 95 || s.tail != 285 || s.p50 != 150 {
		t.Errorf("300 samples: %+v", s)
	}
	if s := summarize(lat[:150], 95); s.tailPct != 90 {
		t.Errorf("150 samples: tail at p%v, want p90", s.tailPct)
	}
}
