package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/appgen"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/service"
	"repro/internal/topology"
)

// The nocd-mix workload is a closed loop of mixClients clients driving an
// in-process service.Server with mixPoolWorkers pool workers over
// loopback HTTP. The request stream is made of blocks. A block holds one
// fresh request per model on each of two app kinds: Table-1 rows, taken
// in turn from a seeded order of the 15 small and mid rows, and appgen
// apps of five fixed shapes. Models rotate over the apps from block to
// block, so every 15 blocks pair each row and each shape with each model
// equally often. A block adds mixRepeats exact repeats of recent fresh
// requests, which the service answers from its result cache or by
// attaching to the in-flight computation. Blocks alternate the
// optimisation technology between 0.07 µm and 0.35 µm. Every request
// carries its app as full JSON.
const (
	mixClients     = 2
	mixPoolWorkers = 2
	mixModels      = 5 // len(mixModelNames), also the rows and shapes per block
	// mixRepeats puts the median latency inside the cheap requests
	// (repeats, cwm/sa, cdcm/hill: 10 of 16), away from the sparse edge
	// between them and the SA and Pareto searches. With fewer repeats
	// the cheap share nears half and the median falls on that edge,
	// where it moves by a third from one seed to the next.
	mixRepeats   = 6
	mixBlockSize = 2*mixModels + mixRepeats
	// mixRepeatWindow is how many earlier requests a repeat may copy; it
	// stays well inside the service's default 256-entry result cache.
	mixRepeatWindow = 2 * mixBlockSize
	// mixQualityBlocks is how many blocks form the quality set: every row
	// and app shape meets every model under both technologies.
	mixQualityBlocks = 90
	// mixStreamBlocks is how many blocks setup generates; the stream
	// cycles through them, shifting every fresh request's search seed
	// per cycle so each cycle is new to the cache.
	mixStreamBlocks = mixQualityBlocks
)

// mixShapes are the appgen app shapes: cores, packets and total bits.
var mixShapes = [mixModels]struct {
	cores, packets int
	bits           int64
}{{6, 20, 8000}, {8, 30, 24000}, {9, 24, 60000}, {10, 40, 20000}, {12, 36, 90000}}

// The per-job search budgets: each job does little search.
const (
	mixTempSteps = 25
	mixMoves     = 40
)

var mixModelNames = []string{"cdcm/sa", "cwm/sa", "cdcm/sa+surrogate", "cdcm/hill", "pareto"}

// applyModel sets the model, engine and budget of a request.
func applyModel(r *service.Request, model string) {
	r.TempSteps, r.MovesPerTemp = mixTempSteps, mixMoves
	switch model {
	case "cdcm/sa":
		r.Model, r.Method = "cdcm", "sa"
	case "cwm/sa":
		r.Model, r.Method = "cwm", "sa"
	case "cdcm/sa+surrogate":
		r.Model, r.Method, r.Surrogate, r.SurrogateSamples = "cdcm", "sa", true, 16
	case "cdcm/hill":
		r.Model, r.Method, r.TempSteps, r.MovesPerTemp = "cdcm", "hill", 0, 0
	case "pareto":
		r.Model, r.FrontSize = "pareto", 8
	}
}

// mixRequest is one entry of the generated stream.
type mixRequest struct {
	model string
	// target is the stream index this request repeats, or -1.
	target int
	req    service.Request
	// in is the resolved instance; app names the app for the probes.
	in  *service.Instance
	app string
}

// mixStream is the generated request stream of one seed.
type mixStream struct {
	seed int64
	reqs []mixRequest
}

// genMixStream generates mixStreamBlocks blocks for seed.
func genMixStream(seed int64, rows []row) (*mixStream, error) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(rows))
	st := &mixStream{seed: seed}
	for b := 0; b < mixStreamBlocks; b++ {
		var fresh []mixRequest
		tech := energy.Tech007.Name
		if b%2 == 1 {
			tech = energy.Tech035.Name
		}
		for k := 0; k < mixModels; k++ {
			model := mixModelNames[(k+b)%mixModels]
			rw := rows[perm[(b*mixModels+k)%len(rows)]]
			r := service.Request{App: rw.G, Mesh: rw.NoCSize(), Tech: tech, Seed: rng.Int63n(1<<31) + 1}
			fresh = append(fresh, mixRequest{model: model, req: r, app: rw.Name})

			sh := mixShapes[k]
			per := sh.bits / int64(sh.packets)
			g, err := appgen.Generate(appgen.Params{
				Name: fmt.Sprintf("appgen-%d-%d-%d", seed, b, k), Cores: sh.cores, Packets: sh.packets,
				TotalBits: sh.bits, Seed: rng.Int63(), Mode: appgen.ModePhases,
				ComputeMin: per / 4, ComputeMax: per,
			})
			if err != nil {
				return nil, err
			}
			r = service.Request{App: g, Tech: tech, Seed: rng.Int63n(1<<31) + 1}
			fresh = append(fresh, mixRequest{model: model, req: r, app: g.Name})
		}
		rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
		// Repeats go to distinct block positions after the first.
		isRepeat := make([]bool, mixBlockSize)
		for _, p := range rng.Perm(mixBlockSize - 1)[:mixRepeats] {
			isRepeat[p+1] = true
		}
		for p := 0; p < mixBlockSize; p++ {
			i := len(st.reqs)
			if !isRepeat[p] {
				mr := fresh[0]
				fresh = fresh[1:]
				mr.target = -1
				applyModel(&mr.req, mr.model)
				in, err := mr.req.Resolve()
				if err != nil {
					return nil, fmt.Errorf("generated request %d: %w", i, err)
				}
				mr.in = in
				st.reqs = append(st.reqs, mr)
				continue
			}
			var recent []int
			for t := max(0, i-mixRepeatWindow); t < i; t++ {
				if st.reqs[t].target < 0 {
					recent = append(recent, t)
				}
			}
			t := recent[rng.Intn(len(recent))]
			rep := st.reqs[t]
			rep.target = t
			st.reqs = append(st.reqs, rep)
		}
	}
	return st, nil
}

// request returns the request sent at stream index i: the generated one
// with its search seed shifted by the stream cycle i falls in.
func (st *mixStream) request(i int) mixRequest {
	n := len(st.reqs)
	mr := st.reqs[i%n]
	c := i / n
	mr.req.Seed += int64(c) * 1_000_003
	if mr.target >= 0 {
		mr.target += c * n
	}
	return mr
}

type mixWorkload struct{}

func (mixWorkload) setup(seed int64) (instance, error) {
	rows, err := smallRows()
	if err != nil {
		return nil, err
	}
	st, err := genMixStream(seed, rows)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Workers: mixPoolWorkers})
	hs := &http.Server{Handler: svc.Handler()}
	m := &mixInst{stream: st, svc: svc, hs: hs, base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * mixClients}},
		served: make(chan error, 1)}
	go func() { m.served <- hs.Serve(ln) }()
	if err := m.health(); err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

type mixInst struct {
	stream *mixStream
	svc    *service.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
	// runs counts measured windows; each starts on a fresh stream cycle
	// so no window is served from an earlier window's cache.
	runs      int
	closeOnce sync.Once
	closeErr  error
}

func (m *mixInst) health() error {
	resp, err := m.client.Get(m.base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// close stops the HTTP server, drains the service and waits for both.
func (m *mixInst) close() error {
	m.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.client.CloseIdleConnections()
		err := m.hs.Shutdown(ctx)
		if serr := <-m.served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		m.closeErr = errors.Join(err, m.svc.Shutdown(ctx))
	})
	return m.closeErr
}

// mixJob is one completed request.
type mixJob struct {
	idx     int
	status  service.JobStatus
	result  []byte // compact result JSON
	err     error
	latency time.Duration
	rtts    []time.Duration
	span    int
}

func (m *mixInst) run(window time.Duration, tr *tracer, _ bool) (*outcome, error) {
	// Each window starts on a stream cycle no earlier window used.
	cycle0 := m.runs * 1000
	m.runs++
	first := cycle0 * len(m.stream.reqs)
	before, err := m.scrape()
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var jobs []mixJob
	a0 := memAllocated()
	sched := newSchedule(mixBlockSize, mixQualityBlocks, window)
	elapsed := drive(mixClients, sched, func(i int) {
		j := m.do(first+i, tr)
		mu.Lock()
		jobs = append(jobs, j)
		mu.Unlock()
	})
	out := &outcome{elapsed: elapsed, allocBytes: memAllocated() - a0}
	after, err := m.scrape()
	if err != nil {
		return nil, err
	}
	if err := m.check(first, jobs, out, tr != nil); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := m.layers(jobs, out, tr, before, after); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// do sends stream request i and waits for its result: the submission
// answers at once on a cache hit, otherwise the client follows the job's
// event stream to its final event.
func (m *mixInst) do(i int, tr *tracer) mixJob {
	mr := m.stream.request(i)
	j := mixJob{idx: i, span: -1}
	body, err := json.Marshal(&mr.req)
	if err != nil {
		j.err = err
		return j
	}
	reqID := fmt.Sprintf("mix-%d-%d", m.stream.seed, i)
	if tr != nil {
		j.span = tr.begin("job", -1, reqID)
		defer tr.end(j.span)
	}
	req, err := http.NewRequest(http.MethodPost, m.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return j
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	t0 := time.Now()
	sub := m.traceCall(tr, j.span, "http.submit", reqID)
	var raw []byte
	resp, err := m.client.Do(req)
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	j.rtts = append(j.rtts, time.Since(t0))
	sub()
	if err != nil {
		j.err = err
		return j
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		j.err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(raw))
		return j
	}
	if err := json.Unmarshal(raw, &j.status); err != nil {
		j.err = fmt.Errorf("submit response: %w", err)
		return j
	}
	if !j.status.State.Terminal() {
		if j.err = m.await(&j, reqID, tr); j.err != nil {
			return j
		}
	}
	j.latency = time.Since(t0)
	if j.status.State != service.StateSucceeded {
		j.err = fmt.Errorf("job %s %s: %s", j.status.ID, j.status.State, j.status.Error)
		return j
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, j.status.Result); err != nil {
		j.err = fmt.Errorf("result: %w", err)
		return j
	}
	j.result = buf.Bytes()
	j.status.Result = nil // kept once, compacted, in j.result
	return j
}

// traceCall opens a span for one HTTP call and returns its closer.
func (m *mixInst) traceCall(tr *tracer, parent int, name, reqID string) func() {
	if tr == nil {
		return func() {}
	}
	id := tr.begin(name, parent, reqID)
	return func() { tr.end(id) }
}

// await follows /v1/jobs/{id}/events until the final "done" event and
// stores its job status. The round trip counted for the call is the
// time to the response headers; the rest is the wait for the compute.
func (m *mixInst) await(j *mixJob, reqID string, tr *tracer) error {
	t0 := time.Now()
	done := m.traceCall(tr, j.span, "http.events", reqID)
	defer done()
	req, err := http.NewRequest(http.MethodGet, m.base+"/v1/jobs/"+j.status.ID+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Request-ID", reqID)
	resp, err := m.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	j.rtts = append(j.rtts, time.Since(t0))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var ev service.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return fmt.Errorf("done event: %w", err)
			}
			if ev.Job == nil {
				return errors.New("done event without job status")
			}
			j.status = *ev.Job
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("event stream ended without a done event")
}

// scrape reads the service counters the benchmark uses from /metrics.
func (m *mixInst) scrape() (map[string]float64, error) {
	resp, err := m.client.Get(m.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{"nocd_jobs_submitted_total": true, "nocd_jobs_rejected_total": true,
		"nocd_cache_hits_total": true, "nocd_computes_total": true, "nocd_evaluations_total": true}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("metric %s: %w", f[0], err)
			}
			out[f[0]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) != len(want) {
		return nil, fmt.Errorf("/metrics lacks some of %v", want)
	}
	return out, nil
}

// check verifies every result and builds the quality set from the
// window's first mixQualityBlocks blocks.
func (m *mixInst) check(first int, jobs []mixJob, out *outcome, traced bool) error {
	byIdx := make(map[int]*mixJob, len(jobs))
	for k := range jobs {
		byIdx[jobs[k].idx] = &jobs[k]
	}
	var q qualityAcc
	var surr, exact []float64
	for i := first; i < first+len(jobs); i++ {
		j := byIdx[i]
		out.attempted++
		if j == nil {
			out.fail("request %d never ran", i)
			continue
		}
		if j.err != nil {
			out.fail("request %d: %v", i, j.err)
			continue
		}
		out.jobs++
		out.latencies = append(out.latencies, ms(j.latency))
		mr := m.stream.request(i)
		var res service.Result
		if err := json.Unmarshal(j.result, &res); err != nil {
			out.fail("request %d: %v", i, err)
			continue
		}
		if err := checkResult(mr.in, &res); err != nil {
			out.fail("request %d (%s on %s): %v", i, mr.model, mr.app, err)
			continue
		}
		if mr.target >= 0 {
			if t := byIdx[mr.target]; t == nil || t.err != nil || !bytes.Equal(t.result, j.result) {
				out.fail("request %d replays request %d with different result bytes", i, mr.target)
				continue
			}
		}
		if i-first >= mixQualityBlocks*mixBlockSize {
			continue
		}
		// Repeats replay their target's result; only fresh requests count.
		if mr.target >= 0 {
			continue
		}
		in := mr.in
		best := resMapping(&res)
		if err := q.winnerAt007(in.Mesh, in.Cfg, in.Tech, in.G, best, resultMetrics(&res)); err != nil {
			return err
		}
		if mr.model == "cwm/sa" {
			continue
		}
		// The CWM winner of the same app, seed and budget is the baseline.
		base := service.Request{App: mr.req.App, Mesh: mr.req.Mesh, Tech: mr.req.Tech, Seed: mr.req.Seed}
		applyModel(&base, "cwm/sa")
		bin, err := base.Resolve()
		if err != nil {
			return err
		}
		cwm, err := core.Explore(bin.Strategy, bin.Mesh, bin.Cfg, bin.Tech, bin.G, bin.Opts)
		if err != nil {
			return fmt.Errorf("CWM baseline of request %d: %w", i, err)
		}
		if err := q.addVsCWM(in.Mesh, in.Cfg, in.Tech, in.G, cwm.Best, best); err != nil {
			return err
		}
		if traced && mr.model == "cdcm/sa+surrogate" {
			// Tier B's cost in quality: the same search without the surrogate.
			opts := in.Opts
			opts.Seed, opts.Surrogate = mr.req.Seed, false
			ex, err := core.Explore(in.Strategy, in.Mesh, in.Cfg, in.Tech, in.G, opts)
			if err != nil {
				return err
			}
			surr = append(surr, math.Log(float64(res.ExecCycles)))
			exact = append(exact, math.Log(float64(ex.Metrics.ExecCycles)))
		}
	}
	out.quality = q.result()
	if traced {
		gs, ge := math.Exp(mean(surr)), math.Exp(mean(exact))
		out.layers = map[string]float64{"search.surrogate_texec_ratio": gs / ge}
		out.notes = append(out.notes, fmt.Sprintf("surrogate_texec_geomean_cy %.1f exact_texec_geomean_cy %.1f over %d cdcm/sa+surrogate requests",
			gs, ge, len(surr)))
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// checkResult checks one result against its instance: a valid winner,
// metrics equal to a re-pricing on a fresh evaluator bit for bit, and
// the tier split of the evaluation count.
func checkResult(in *service.Instance, res *service.Result) error {
	if err := checkSplit(res.Evaluations, res.ExactEvals, res.BoundSkips, res.SurrogateEvals); err != nil {
		return err
	}
	got := resultMetrics(res)
	if got.Total() != res.TotalJ {
		return fmt.Errorf("total_j %v is not dynamic_j + static_j = %v", res.TotalJ, got.Total())
	}
	return checkPricing(in.Mesh, in.Cfg, in.Tech, in.G, resMapping(res), got)
}

func resMapping(res *service.Result) mapping.Mapping {
	mp := make(mapping.Mapping, len(res.Mapping))
	for c, t := range res.Mapping {
		mp[c] = topology.TileID(t)
	}
	return mp
}

func resultMetrics(res *service.Result) core.Metrics {
	return core.Metrics{
		ExecCycles: res.ExecCycles, ExecNS: res.ExecNS,
		Energy:           energy.Breakdown{Dynamic: res.DynamicJ, Static: res.StaticJ},
		ContentionCycles: res.ContentionCycles, TSVBits: res.TSVBits,
	}
}

// layers derives the per-layer metrics of a traced window: the server's
// telemetry spans become children of the client's job span, and the
// service counters are the /metrics deltas over the window.
func (m *mixInst) layers(jobs []mixJob, out *outcome, tr *tracer, before, after map[string]float64) error {
	var acc layerAcc
	var queueMS, computeMS, resultBytes float64
	var calls, computed int
	var rtt time.Duration
	for k := range jobs {
		j := &jobs[k]
		calls += len(j.rtts)
		for _, d := range j.rtts {
			rtt += d
		}
		if j.err != nil {
			continue
		}
		resultBytes += float64(len(j.result))
		tel := j.status.Telemetry
		if tel == nil || tel.Spans == nil || j.status.StartedAt == nil {
			continue // served from the cache or attached to another compute
		}
		computed++
		sp := tel.Spans
		req := j.status.RequestID
		queueMS += sp.QueuedMS
		computeMS += sp.BuildMS + sp.SearchMS + sp.PriceMS
		at := *j.status.StartedAt
		tr.add("service.queue", j.span, req, j.status.SubmittedAt, at)
		for _, ph := range []struct {
			name string
			ms   float64
		}{{"core.build", sp.BuildMS}, {"core.search", sp.SearchMS}, {"core.price", sp.PriceMS}} {
			end := at.Add(time.Duration(ph.ms * float64(time.Millisecond)))
			tr.add(ph.name, j.span, req, at, end)
			at = end
		}
		var res service.Result
		if err := json.Unmarshal(j.result, &res); err != nil {
			return err
		}
		var c jobCounts
		for _, e := range tel.Engines {
			c.accepted += e.Accepted
			c.rejected += e.Rejected
		}
		mr := m.stream.request(j.idx)
		acc.add(c, instKey{id: mr.app + "@" + mr.in.Tech.Name, mesh: mr.in.Mesh, cfg: mr.in.Cfg,
			tech: mr.in.Tech, g: mr.in.G, winner: resMapping(&res)},
			res.ExactEvals, res.BoundSkips, res.SurrogateEvals)
	}
	if err := acc.fill(out.layers, tr); err != nil {
		return err
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	n := float64(max(len(jobs), 1))
	c := float64(max(computed, 1))
	out.layers["core.evals_per_job"] = delta("nocd_evaluations_total") / math.Max(delta("nocd_computes_total"), 1)
	out.layers["service.queue_ms"] = queueMS / c
	out.layers["service.compute_ms"] = computeMS / c
	out.layers["service.cache_hit_ratio"] = ratio(delta("nocd_cache_hits_total"), delta("nocd_jobs_submitted_total"))
	out.layers["service.rejected"] = delta("nocd_jobs_rejected_total")
	out.layers["service.result_bytes"] = resultBytes / n
	out.layers["http.rtt_ms"] = ms(rtt) / float64(max(calls, 1))
	out.layers["http.calls_per_job"] = float64(calls) / n
	return nil
}
