package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/noc"
	"repro/internal/search"
)

// The scan workload runs the strict-improvement engines (hill climbing
// and tabu search) under CDCM through core.Explore, so the tier-A
// certified bound is always on, over the 15 small and mid Table-1 rows:
// one job per row, engine and optimisation technology per pass, two
// closed-loop clients, each running its explorations on one worker.
// Every pass uses its own seeds. Two clients keep both CPUs of a
// two-CPU host busy: on a shared host each CPU's speed drifts on its own
// by 10-20% over seconds, and a single client would carry the drift of
// the one CPU it runs on into jobs_per_s (IQR/median 0.21 over six
// seeds, against 0.08 with two clients).
const (
	scanClients       = 2
	scanQualityPasses = 12
)

var (
	scanMethods = []core.Method{core.MethodHill, core.MethodTabu}
	scanTechs   = []energy.Tech{energy.Tech007, energy.Tech035}
)

type scanWorkload struct{}

func (scanWorkload) setup(seed int64) (instance, error) {
	rows, err := smallRows()
	if err != nil {
		return nil, err
	}
	return &scanInst{seed: seed, rows: rows, cfg: noc.Default()}, nil
}

type scanInst struct {
	seed int64
	rows []row
	cfg  noc.Config
}

func (s *scanInst) close() error { return nil }

type scanJob struct {
	idx, pass, row int
	method         core.Method
	tech           energy.Tech
	res            *core.ExploreResult
	err            error
	latency        time.Duration
}

func (s *scanInst) passSize() int { return len(s.rows) * len(scanMethods) * len(scanTechs) }

// jobAt maps a job index to its pass, row, engine and technology.
func (s *scanInst) jobAt(i int) scanJob {
	pass, k := i/s.passSize(), i%s.passSize()
	nm := len(scanMethods)
	return scanJob{idx: i, pass: pass, row: k / (nm * len(scanTechs)),
		method: scanMethods[k%nm], tech: scanTechs[k/nm%len(scanTechs)]}
}

// seedOf is the search seed of a row in a pass; every job on that row in
// the pass and its CWM baselines share it.
func (s *scanInst) seedOf(pass, r int) int64 { return jobSeed(s.seed, pass, r) }

func (s *scanInst) run(window time.Duration, tr *tracer, withQuality bool) (*outcome, error) {
	var mu sync.Mutex
	var jobs []scanJob
	var acc layerAcc
	a0 := memAllocated()
	sched := newSchedule(s.passSize(), minPasses(withQuality, scanQualityPasses), window)
	elapsed := drive(scanClients, sched, func(i int) {
		j := s.jobAt(i)
		rw := s.rows[j.row]
		opts := core.Options{Method: j.method, Seed: s.seedOf(j.pass, j.row), Workers: 1}
		var h *jobHooks
		if tr != nil {
			h = newJobHooks(tr, fmt.Sprintf("scan-%d-%d", s.seed, i))
			h.attach(&opts)
		}
		t0 := time.Now()
		j.res, j.err = core.Explore(core.StrategyCDCM, rw.mesh, s.cfg, j.tech, rw.G, opts)
		j.latency = time.Since(t0)
		if h != nil {
			k := instKey{id: rw.Name + "@" + j.tech.Name, mesh: rw.mesh, cfg: s.cfg, tech: j.tech, g: rw.G}
			var sr search.Result
			if j.err == nil {
				sr, k.winner = *j.res.Search, j.res.Best
			}
			acc.add(h.finish(), k, sr.ExactEvals, sr.BoundSkips, sr.SurrogateEvals)
		}
		mu.Lock()
		jobs = append(jobs, j)
		mu.Unlock()
	})
	out := &outcome{elapsed: elapsed, allocBytes: memAllocated() - a0}
	// In job order, so the quality sums do not depend on which client
	// finished first.
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].idx < jobs[b].idx })
	if err := s.check(jobs, out, withQuality); err != nil {
		return nil, err
	}
	if tr != nil {
		out.layers = map[string]float64{}
		if err := acc.fill(out.layers, tr); err != nil {
			return nil, err
		}
		notApplicable(out.layers, mixOnlyLayers...)
	}
	return out, nil
}

// check verifies every exploration, builds the quality set from the first
// scanQualityPasses passes and notes the quality set's tier-A skip ratio
// per row.
func (s *scanInst) check(jobs []scanJob, out *outcome, withQuality bool) error {
	var q qualityAcc
	baselines := map[[2]int]mapping.Mapping{}
	skips := make(map[string][2]int64) // row@tech: bound skips, evaluations
	for _, j := range jobs {
		out.attempted++
		if j.err != nil {
			out.fail("%s %v@%s pass %d: %v", s.rows[j.row].Name, j.method, j.tech.Name, j.pass, j.err)
			continue
		}
		out.jobs++
		out.latencies = append(out.latencies, ms(j.latency))
		rw := s.rows[j.row]
		sr := j.res.Search
		if err := checkSplit(sr.Evaluations, sr.ExactEvals, sr.BoundSkips, sr.SurrogateEvals); err != nil {
			out.fail("%s %v@%s pass %d: %v", rw.Name, j.method, j.tech.Name, j.pass, err)
			continue
		}
		if err := checkPricing(rw.mesh, s.cfg, j.tech, rw.G, j.res.Best, j.res.Metrics); err != nil {
			out.fail("%s %v@%s pass %d: %v", rw.Name, j.method, j.tech.Name, j.pass, err)
			continue
		}
		if !withQuality || j.pass >= scanQualityPasses {
			continue
		}
		k := rw.Name + "@" + j.tech.Name
		skips[k] = [2]int64{skips[k][0] + sr.BoundSkips, skips[k][1] + sr.Evaluations}
		if err := q.winnerAt007(rw.mesh, s.cfg, j.tech, rw.G, j.res.Best, j.res.Metrics); err != nil {
			return err
		}
		// As in core.CompareModels, one CWM winner searched under 0.07 µm
		// is the baseline for both technologies.
		key := [2]int{j.pass, j.row}
		base, ok := baselines[key]
		if !ok {
			cwm, err := core.Explore(core.StrategyCWM, rw.mesh, s.cfg, energy.Tech007, rw.G,
				core.Options{Seed: s.seedOf(j.pass, j.row)})
			if err != nil {
				return fmt.Errorf("CWM baseline of %s: %w", rw.Name, err)
			}
			base = cwm.Best
			baselines[key] = base
		}
		if err := q.addVsCWM(rw.mesh, s.cfg, j.tech, rw.G, base, j.res.Best); err != nil {
			return err
		}
	}
	out.quality = q.result()
	for _, k := range sortedKeys(skips) {
		out.notes = append(out.notes, fmt.Sprintf("bound_skip_ratio %s %.4f (%d of %d)",
			k, ratio(float64(skips[k][0]), float64(skips[k][1])), skips[k][0], skips[k][1]))
	}
	return nil
}
