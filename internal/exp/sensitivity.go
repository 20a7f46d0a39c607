package exp

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/noc"
	"repro/internal/par"
	"repro/internal/search"
	"repro/internal/trace"
)

// SensitivityOutcome quantifies how mapping-sensitive a workload's
// execution time is: the spread of texec over random mappings, the best
// texec a time-only annealer can reach, and the gap the CWM winner leaves
// on the table. This analysis explains WHERE the paper's ETR comes from —
// workloads whose volume-optimal placements still leave avoidable
// contention (symmetric, phase-parallel traffic) show large gaps;
// hub-centred traffic shows nearly none.
type SensitivityOutcome struct {
	Workload string
	NoCSize  string
	// MinRandom/MeanRandom/MaxRandom summarise texec (cycles) over the
	// random-mapping sample.
	MinRandom, MeanRandom, MaxRandom int64
	// MeanContention is the average total contention over the sample.
	MeanContention int64
	// BestTime is the texec found by an annealer minimising texec alone.
	BestTime int64
	// CWMTime is the texec of the CWM (volume-only) winner.
	CWMTime int64
	// Gap is (CWMTime-BestTime)/CWMTime: the execution time a timing-blind
	// mapper leaves on the table — an upper bound on per-workload ETR.
	Gap float64
}

// RunSensitivity samples `samples` random mappings per workload and
// bounds the achievable ETR. Workloads are analysed concurrently on a
// pool of `workers` goroutines (0 or 1 = serial); each job owns its own
// instance and RNG, so the outcome slice is bit-identical for every
// worker count. A non-nil ctx cancels the run between workloads and is
// threaded into every exploration; a nil ctx reproduces the exact
// uncancellable behavior.
func RunSensitivity(ctx context.Context, suite []Workload, cfg noc.Config, samples int, seed int64, workers int) ([]SensitivityOutcome, error) {
	if cfg == (noc.Config{}) {
		cfg = noc.Default()
	}
	if samples <= 0 {
		samples = 200
	}
	outs := make([]SensitivityOutcome, len(suite))
	err := par.ForEachCtx(ctx, len(suite), workers, func(i int) error {
		w := suite[i]
		in, err := w.Instance(cfg)
		if err != nil {
			return err
		}
		mesh, cdcm := in.Mesh, in.CDCM(energy.Tech007)
		rng := rand.New(rand.NewSource(seed))
		o := SensitivityOutcome{Workload: w.Name, NoCSize: w.NoCSize(), MinRandom: math.MaxInt64}
		var sumT, sumC int64
		for s := 0; s < samples; s++ {
			mp, err := mapping.Random(rng, w.G.NumCores(), mesh.NumTiles())
			if err != nil {
				return err
			}
			res, err := cdcm.Evaluate(mp)
			if err != nil {
				return err
			}
			if res.ExecCycles < o.MinRandom {
				o.MinRandom = res.ExecCycles
			}
			if res.ExecCycles > o.MaxRandom {
				o.MaxRandom = res.ExecCycles
			}
			sumT += res.ExecCycles
			sumC += res.ContentionCycles
		}
		o.MeanRandom = sumT / int64(samples)
		o.MeanContention = sumC / int64(samples)

		timeObj := search.ObjectiveFunc(func(mp mapping.Mapping) (float64, error) {
			res, err := cdcm.Evaluate(mp)
			if err != nil {
				return 0, err
			}
			return float64(res.ExecCycles), nil
		})
		tSA, err := (&search.Annealer{
			Problem: search.Problem{Mesh: mesh, NumCores: w.G.NumCores(), Obj: timeObj},
			Seed:    seed,
			Ctx:     ctx,
		}).Run()
		if err != nil {
			return err
		}
		o.BestTime = int64(tSA.BestCost)

		cw, err := in.Explore(core.StrategyCWM, energy.Tech007, core.Options{Method: core.MethodSA, Seed: seed, Ctx: ctx})
		if err != nil {
			return err
		}
		o.CWMTime = cw.Metrics.ExecCycles
		if o.CWMTime > 0 {
			o.Gap = float64(o.CWMTime-o.BestTime) / float64(o.CWMTime)
		}
		outs[i] = o
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// RenderSensitivity formats the analysis.
func RenderSensitivity(outs []SensitivityOutcome) string {
	headers := []string{"workload", "NoC", "t rand min/mean/max", "mean contention", "t best", "t cwm", "ETR bound"}
	var rows [][]string
	for _, o := range outs {
		rows = append(rows, []string{
			o.Workload, o.NoCSize,
			fmt.Sprintf("%d/%d/%d", o.MinRandom, o.MeanRandom, o.MaxRandom),
			fmt.Sprint(o.MeanContention),
			fmt.Sprint(o.BestTime), fmt.Sprint(o.CWMTime),
			fmt.Sprintf("%.1f %%", o.Gap*100),
		})
	}
	return "Mapping sensitivity — texec spread and the gap a volume-only mapper leaves\n" +
		trace.Table(headers, rows)
}
