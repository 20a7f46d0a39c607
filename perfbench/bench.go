package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/topology"
)

// outcome is what one measured window produced.
type outcome struct {
	// attempted counts jobs started; failed counts errors, refused
	// submissions and failed output checks.
	attempted, failed int
	// jobs counts jobs completed inside the window.
	jobs int
	// elapsed is the window from the first job issued to the last one
	// completed.
	elapsed time.Duration
	// latencies holds one host latency per completed job, in ms.
	latencies []float64
	// allocBytes is the heap allocated during the window.
	allocBytes uint64
	// quality summarises the simulated winners of the quality set.
	quality quality
	// layers holds the per-layer metrics of a traced window.
	layers map[string]float64
	// notes are human-readable lines printed before the result.
	notes []string
}

func (o *outcome) jobsPerSecond() float64 { return float64(o.jobs) / o.elapsed.Seconds() }

func (o *outcome) failedRatio() float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.failed) / float64(o.attempted)
}

// fail records one failed job or output check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		o.notes = append(o.notes, "FAILED: "+fmt.Sprintf(format, args...))
	}
}

// quality holds the simulated statistics of a workload's quality set:
// geometric means of the winners' execution time and of their energy
// under 0.07 µm, and the mean savings of CDCM winners over CWM winners
// of the same app and seed: execution-time reduction on the 0.07 µm
// searches, and energy saving under the technology each search
// optimised for. Every input is deterministic for a fixed seed.
type quality struct {
	texecGeomean, enocGeomean    float64
	etrPct, ecs035Pct, ecs007Pct float64
}

// Indexes of the savings a qualityAcc averages.
const (
	qETR = iota
	qECS035
	qECS007
)

// qualityAcc accumulates a quality set.
type qualityAcc struct {
	logT, logE float64
	n          int
	sum        [3]float64
	cnt        [3]int
}

// winner adds a winner priced under 0.07 µm.
func (q *qualityAcc) winner(m core.Metrics) {
	q.logT += math.Log(float64(m.ExecCycles))
	q.logE += math.Log(m.Total())
	q.n++
}

// saving adds one saving, as a fraction, to average k.
func (q *qualityAcc) saving(k int, v float64) {
	q.sum[k] += v
	q.cnt[k]++
}

// ecsIndex is the saving average of a technology.
func ecsIndex(tech energy.Tech) int {
	if tech.Name == energy.Tech035.Name {
		return qECS035
	}
	return qECS007
}

func (q *qualityAcc) result() quality {
	var r quality
	if q.n > 0 {
		r.texecGeomean = math.Exp(q.logT / float64(q.n))
		r.enocGeomean = math.Exp(q.logE / float64(q.n))
	}
	pct := func(k int) float64 { return 100 * ratio(q.sum[k], float64(q.cnt[k])) }
	r.etrPct, r.ecs035Pct, r.ecs007Pct = pct(qETR), pct(qECS035), pct(qECS007)
	return r
}

// priceAt prices a mapping on a fresh evaluator under tech.
func priceAt(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech, g *model.CDCG, mp mapping.Mapping) (core.Metrics, error) {
	p, err := core.NewCDCM(mesh, cfg, tech, g)
	if err != nil {
		return core.Metrics{}, err
	}
	return p.Evaluate(mp)
}

// addVsCWM adds to q the savings of a CDCM winner searched under tech
// over the CWM winner of the same app and seed: the energy saving under
// tech and, for 0.07 µm searches, the execution-time reduction. Like
// core.CompareModels, whose CWM-seeded leg can return the CWM winner
// itself, it keeps whichever of the two mappings the CDCM objective
// prices lower, so a search that found nothing better saves zero.
func (q *qualityAcc) addVsCWM(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech, g *model.CDCG, cwmBest, best mapping.Mapping) error {
	mw, err := priceAt(mesh, cfg, tech, g, cwmBest)
	if err != nil {
		return err
	}
	md, err := priceAt(mesh, cfg, tech, g, best)
	if err != nil {
		return err
	}
	if md.Total() >= mw.Total() {
		md = mw
	}
	q.saving(ecsIndex(tech), (mw.Total()-md.Total())/mw.Total())
	if tech.Name == energy.Tech007.Name {
		q.saving(qETR, float64(mw.ExecCycles-md.ExecCycles)/float64(mw.ExecCycles))
	}
	return nil
}

// winnerAt007 adds a winner searched under tech, re-pricing it under
// 0.07 µm when tech differs.
func (q *qualityAcc) winnerAt007(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech, g *model.CDCG, best mapping.Mapping, m core.Metrics) error {
	if tech.Name != energy.Tech007.Name {
		var err error
		if m, err = priceAt(mesh, cfg, energy.Tech007, g, best); err != nil {
			return err
		}
	}
	q.winner(m)
	return nil
}

// checkPricing re-prices a winner on a fresh evaluator and requires the
// reported metrics to match bit for bit.
func checkPricing(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech, g *model.CDCG,
	mp mapping.Mapping, got core.Metrics) error {
	if err := mp.Validate(mesh.NumTiles()); err != nil {
		return fmt.Errorf("invalid winner: %w", err)
	}
	if len(mp) != g.NumCores() {
		return fmt.Errorf("winner maps %d cores, app has %d", len(mp), g.NumCores())
	}
	want, err := priceAt(mesh, cfg, tech, g, mp)
	if err != nil {
		return err
	}
	if want != got {
		return fmt.Errorf("reported metrics %+v differ from re-pricing %+v", got, want)
	}
	return nil
}

// checkSplit checks the tier split of a search's evaluation count.
func checkSplit(evals, exact, skips, surrogate int64) error {
	if evals != exact+skips+surrogate {
		return fmt.Errorf("evaluations %d != exact %d + bound skips %d + surrogate %d",
			evals, exact, skips, surrogate)
	}
	return nil
}

// schedule hands out job indices pass by pass to closed-loop workers. A
// pass is one sweep over the workload's job list. It stops issuing at the
// first pass boundary after the window has elapsed, and never before
// minPasses passes, so the completed jobs always form whole passes and
// the first minPasses passes (the quality set) always complete.
type schedule struct {
	mu        sync.Mutex
	passSize  int
	minPasses int
	window    time.Duration
	start     time.Time
	next      int
	stopped   bool
}

// minPasses is the number of passes a window must complete: the quality
// set when the window reports it, otherwise one.
func minPasses(withQuality bool, quality int) int {
	if withQuality {
		return quality
	}
	return 1
}

func newSchedule(passSize, minPasses int, window time.Duration) *schedule {
	return &schedule{passSize: passSize, minPasses: minPasses, window: window, start: time.Now()}
}

func (s *schedule) take() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return 0, false
	}
	if s.next%s.passSize == 0 && s.next/s.passSize >= s.minPasses && time.Since(s.start) >= s.window {
		s.stopped = true
		return 0, false
	}
	i := s.next
	s.next++
	return i, true
}

// drive runs do on every index the schedule hands out, from the given
// number of closed-loop workers, and returns the elapsed window.
func drive(workers int, s *schedule, do func(i int)) time.Duration {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := s.take()
				if !ok {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(s.start)
}

// jobSeed derives a search seed from the workload seed and a job's
// coordinates (splitmix64), so every job has its own reproducible seed.
func jobSeed(seed int64, coords ...int) int64 {
	x := uint64(seed)
	for _, c := range coords {
		x ^= uint64(c) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return int64(x>>1) + 1
}

// latencySummary is the median and tail of a latency sample.
type latencySummary struct {
	p50, tail, tailPct float64
	n                  int
}

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// summarize reports the median and the declared tail percentile of the
// latencies. When the sample leaves fewer than ten samples beyond the
// declared percentile, the tail steps down the ladder until it does.
func summarize(lat []float64, declared float64) latencySummary {
	s := latencySummary{n: len(lat)}
	if len(lat) == 0 {
		return s
	}
	xs := append([]float64(nil), lat...)
	sort.Float64s(xs)
	s.p50 = percentile(xs, 50)
	s.tailPct = 50
	for _, p := range tailLadder {
		if p <= declared && float64(len(xs))*(100-p)/100 >= 10 {
			s.tailPct = p
			break
		}
	}
	s.tail = percentile(xs, s.tailPct)
	return s
}

// percentile is the nearest-rank percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// progressKey identifies one engine stream of a job's progress snapshots.
type progressKey struct {
	engine  string
	restart int
}

// jobHooks are the observation hooks one traced job attaches to
// core.Options: phase spans under the job span, an evaluation counter
// and the accepted/rejected move totals of the search engines.
type jobHooks struct {
	tr    *tracer
	job   int
	req   string
	phase int
	evals obs.Counter

	mu                 sync.Mutex
	last               map[progressKey]search.Progress
	accepted, rejected int64
}

// newJobHooks opens the root span of job req.
func newJobHooks(tr *tracer, req string) *jobHooks {
	h := &jobHooks{tr: tr, req: req, phase: -1, last: map[progressKey]search.Progress{}}
	h.job = tr.begin("job", -1, req)
	return h
}

// attach installs the hooks on opts.
func (h *jobHooks) attach(opts *core.Options) {
	opts.OnPhase = h.onPhase
	opts.EvalCounter = &h.evals
	opts.OnProgress = h.onProgress
}

func (h *jobHooks) onPhase(name string) {
	if h.phase >= 0 {
		h.tr.end(h.phase)
	}
	h.phase = h.tr.begin("core."+name, h.job, h.req)
}

// onProgress keeps the latest snapshot per engine stream; a snapshot
// whose evaluation count went down starts a new run of that stream, so
// the previous run's totals are folded in first.
func (h *jobHooks) onProgress(p search.Progress) {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := progressKey{p.Engine, p.Restart}
	if prev, ok := h.last[k]; ok && p.Evaluations < prev.Evaluations {
		h.accepted += prev.Accepted
		h.rejected += prev.Rejected
	}
	h.last[k] = p
}

// jobCounts are one job's observed counters: objective pricings and
// the search engines' accepted and rejected moves.
type jobCounts struct{ evals, accepted, rejected int64 }

// finish closes the open spans and returns the job's counters.
func (h *jobHooks) finish() jobCounts {
	if h.phase >= 0 {
		h.tr.end(h.phase)
	}
	h.tr.end(h.job)
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range h.last {
		h.accepted += p.Accepted
		h.rejected += p.Rejected
	}
	return jobCounts{evals: h.evals.Value(), accepted: h.accepted, rejected: h.rejected}
}

// instKey identifies an instance for the per-instance cost probe. The
// probe prices a winner of the instance: searches spend most of their
// evaluations near good mappings, which simulate faster than random ones.
type instKey struct {
	id     string
	mesh   *topology.Mesh
	cfg    noc.Config
	tech   energy.Tech
	g      *model.CDCG
	winner mapping.Mapping
}

// layerAcc accumulates the per-job counters of a traced window. Workers
// add to it concurrently.
type layerAcc struct {
	mu                      sync.Mutex
	jobs                    int
	evals                   int64
	exact, skips, surrogate int64
	accepted, rejected      int64
	exactBy                 map[string]int64
	insts                   map[string]instKey
}

// add folds one finished job: its counters and the tier split of its
// searches on instance k.
func (a *layerAcc) add(c jobCounts, k instKey, exact, skips, surrogate int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.exactBy == nil {
		a.exactBy, a.insts = map[string]int64{}, map[string]instKey{}
	}
	a.jobs++
	a.evals += c.evals
	a.accepted += c.accepted
	a.rejected += c.rejected
	a.exact += exact
	a.skips += skips
	a.surrogate += surrogate
	a.exactBy[k.id] += exact
	if _, ok := a.insts[k.id]; !ok && k.winner != nil {
		a.insts[k.id] = k
	}
}

// fill writes the core, search and wormhole per-layer metrics into m.
// Phase spans come from the tracer. The search overhead is the search
// span minus the exact evaluations priced at each instance's probed
// CDCM.Cost time: the engine's and the bound's self time, give or take
// how far the probe's cost is from the average candidate's.
func (a *layerAcc) fill(m map[string]float64, tr *tracer) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var exactMS float64
	runtime.GC() // so no collection of the window's garbage runs under the probes
	for _, id := range sortedKeys(a.insts) {
		k := a.insts[id]
		r, err := probeCDCMCost(k.mesh, k.cfg, k.tech, k.g, k.winner, 2*time.Millisecond)
		if err != nil {
			return err
		}
		exactMS += float64(a.exactBy[id]) * r.nsOp / 1e6
	}
	jobs := float64(max(a.jobs, 1))
	searchMS := ms(tr.total("core.search"))
	m["core.build_ms"] = ms(tr.total("core.build")) / jobs
	m["core.search_ms"] = searchMS / jobs
	m["core.price_ms"] = ms(tr.total("core.price")) / jobs
	m["core.evals_per_job"] = float64(a.evals) / jobs
	m["search.exact_evals"] = float64(a.exact) / jobs
	m["search.bound_skips"] = float64(a.skips) / jobs
	m["search.surrogate_evals"] = float64(a.surrogate) / jobs
	m["search.bound_skip_ratio"] = ratio(float64(a.skips), float64(a.exact+a.skips+a.surrogate))
	m["search.accept_ratio"] = ratio(float64(a.accepted), float64(a.accepted+a.rejected))
	m["search.overhead_ms"] = (searchMS - exactMS) / jobs
	m["wormhole.sims_per_s"] = ratio(float64(a.exact), searchMS/1e3)
	m["trace.job_self_ms"] = ms(tr.self("job")) / jobs
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// notApplicable records zero for per-layer metrics of layers a workload
// does not run.
func notApplicable(m map[string]float64, names ...string) {
	for _, n := range names {
		m[n] = 0
	}
}

// mixOnlyLayers are the per-layer metrics only nocd-mix produces.
var mixOnlyLayers = []string{"service.queue_ms", "service.compute_ms", "service.cache_hit_ratio",
	"service.rejected", "service.result_bytes", "http.rtt_ms", "http.calls_per_job",
	"search.surrogate_texec_ratio"}
