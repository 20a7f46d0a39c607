package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/noc"
	"repro/internal/topology"
)

// The table2 workload is the paper's Table-2 protocol (core.CompareModels)
// over all 18 Table-1 rows: one comparison per row per pass, two
// closed-loop workers, large rows first in each pass so the workers
// finish it close together. The 15 small and mid rows use the annealer's
// default schedule; the three large rows a bounded one. The passes cycle
// through the search seeds 1..table2QualityPasses on every row, as
// `nocexp -exp table2` does with its seed list, so table2 is the paper's
// fixed experiment and does not depend on the workload seed. With search
// seeds drawn from the workload seed, the savings averages spread by a
// quarter or more of their median from one seed to the next; a seeded
// submission order added its own spread to the median latency.
const (
	table2Workers = 2
	// table2QualityPasses is how many passes form the quality set: one
	// cycle of search seeds.
	table2QualityPasses = 3
	// table2MinPasses is the fewest passes a measured window runs: with
	// two seed cycles, at least 108 latencies, so the tail percentile
	// (p90) falls among the large rows' comparisons rather than between
	// two classes of small ones.
	table2MinPasses = 2 * table2QualityPasses
	// largeTiles separates the three large rows (64+ tiles) from the rest.
	largeTiles = 64
)

// largeSchedule is the bounded annealing schedule of the large rows, the
// one the repository's tiered-search benchmark uses on 12x10, run to the
// end (no stall exit) so every pass costs the same.
func largeSchedule(o core.Options) core.Options {
	o.Method = core.MethodSA
	o.TempSteps, o.MovesPerTemp, o.Alpha = 40, 120, 0.7
	o.StallSteps = o.TempSteps
	return o
}

type table2Workload struct{}

// row is one Table-1 instance with its mesh.
type row struct {
	exp.Workload
	mesh *topology.Mesh
}

// table1Rows builds the Table-1 suite and its meshes.
func table1Rows() ([]row, error) {
	suite, err := exp.Table1Suite()
	if err != nil {
		return nil, err
	}
	rows := make([]row, len(suite))
	for i, w := range suite {
		mesh, err := w.Mesh()
		if err != nil {
			return nil, err
		}
		rows[i] = row{Workload: w, mesh: mesh}
	}
	return rows, nil
}

// smallRows returns the 15 small and mid Table-1 rows.
func smallRows() ([]row, error) {
	all, err := table1Rows()
	if err != nil {
		return nil, err
	}
	var rows []row
	for _, r := range all {
		if r.mesh.NumTiles() < largeTiles {
			rows = append(rows, r)
		}
	}
	return rows, nil
}

func (table2Workload) setup(seed int64) (instance, error) {
	rows, err := table1Rows()
	if err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].mesh.NumTiles() > rows[b].mesh.NumTiles() })
	return &table2Inst{seed: seed, rows: rows, cfg: noc.Default()}, nil
}

type table2Inst struct {
	seed int64
	// rows holds the large rows first, then the others.
	rows []row
	cfg  noc.Config
}

func (t *table2Inst) close() error { return nil }

// table2Job is one completed comparison.
type table2Job struct {
	pass, row int
	cmp       *core.Comparison
	err       error
	latency   time.Duration
}

func (t *table2Inst) options(pass, r int) core.Options {
	o := core.Options{Seed: int64(pass%table2QualityPasses + 1), Workers: 1}
	if t.rows[r].mesh.NumTiles() >= largeTiles {
		o = largeSchedule(o)
	}
	return o
}

func (t *table2Inst) run(window time.Duration, tr *tracer, withQuality bool) (*outcome, error) {
	n := len(t.rows)
	var mu sync.Mutex
	var jobs []table2Job
	var acc layerAcc
	a0 := memAllocated()
	sched := newSchedule(n, minPasses(withQuality, table2MinPasses), window)
	elapsed := drive(table2Workers, sched, func(i int) {
		pass, r := i/n, i%n
		opts := t.options(pass, r)
		var h *jobHooks
		if tr != nil {
			h = newJobHooks(tr, fmt.Sprintf("table2-%d-%d", t.seed, i))
			h.attach(&opts)
		}
		rw := t.rows[r]
		t0 := time.Now()
		cmp, err := core.CompareModels(rw.mesh, t.cfg, rw.G, core.CompareOptions{Options: opts})
		lat := time.Since(t0)
		if h != nil {
			// Table 2 runs no tiers: every CDCM evaluation is exact.
			k := instKey{id: rw.Name, mesh: rw.mesh, cfg: t.cfg, tech: energy.Tech007, g: rw.G}
			var exact int64
			if err == nil {
				exact, k.winner = cmp.CDCMEvaluations, cmp.CDCMMappings[energy.Tech007.Name]
			}
			acc.add(h.finish(), k, exact, 0, 0)
		}
		mu.Lock()
		jobs = append(jobs, table2Job{pass: pass, row: r, cmp: cmp, err: err, latency: lat})
		mu.Unlock()
	})
	out := &outcome{elapsed: elapsed, allocBytes: memAllocated() - a0}
	t.check(jobs, out)
	if tr != nil {
		out.layers = map[string]float64{}
		if err := acc.fill(out.layers, tr); err != nil {
			return nil, err
		}
		notApplicable(out.layers, mixOnlyLayers...)
	}
	return out, nil
}

// check verifies every comparison and builds the quality set from the
// first table2QualityPasses passes.
func (t *table2Inst) check(jobs []table2Job, out *outcome) {
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].pass != jobs[b].pass {
			return jobs[a].pass < jobs[b].pass
		}
		return jobs[a].row < jobs[b].row
	})
	var q qualityAcc
	for _, j := range jobs {
		out.attempted++
		if j.err != nil {
			out.fail("%s pass %d: %v", t.rows[j.row].Name, j.pass, j.err)
			continue
		}
		out.jobs++
		out.latencies = append(out.latencies, ms(j.latency))
		if err := t.checkComparison(j); err != nil {
			out.fail("%s pass %d: %v", t.rows[j.row].Name, j.pass, err)
			continue
		}
		if j.pass >= table2QualityPasses {
			continue
		}
		q.winner(j.cmp.CDCMMetrics[energy.Tech007.Name])
		q.saving(qETR, j.cmp.ETR)
		q.saving(qECS035, j.cmp.ECS[energy.Tech035.Name])
		q.saving(qECS007, j.cmp.ECS[energy.Tech007.Name])
	}
	out.quality = q.result()
}

// checkComparison re-prices both winners under both techs on fresh
// evaluators and requires the reported metrics bit for bit.
func (t *table2Inst) checkComparison(j table2Job) error {
	rw := t.rows[j.row]
	for _, tech := range []energy.Tech{energy.Tech035, energy.Tech007} {
		if err := checkPricing(rw.mesh, t.cfg, tech, rw.G, j.cmp.CWMMapping, j.cmp.CWMMetrics[tech.Name]); err != nil {
			return fmt.Errorf("CWM winner under %s: %w", tech.Name, err)
		}
		if err := checkPricing(rw.mesh, t.cfg, tech, rw.G, j.cmp.CDCMMappings[tech.Name], j.cmp.CDCMMetrics[tech.Name]); err != nil {
			return fmt.Errorf("CDCM winner under %s: %w", tech.Name, err)
		}
	}
	return nil
}
