package core_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/mapping"
	"repro/internal/noc"
	"repro/internal/search"
	"repro/internal/topology"
)

// laneCosts prices every mapping on a CWM, a CDCM and a resilience
// evaluator, in that order per mapping.
func laneCosts(mps []mapping.Mapping, objs ...search.Objective) ([]uint64, error) {
	var out []uint64
	for _, mp := range mps {
		for _, o := range objs {
			c, err := o.Cost(mp)
			if err != nil {
				return nil, err
			}
			out = append(out, math.Float64bits(c))
		}
	}
	return out, nil
}

// TestInstanceEvaluatorsMatchStandalone: on every Table-1 row of at most
// 12 tiles and for both techs, the CWM, CDCM and resilience lanes of one
// instance price random mappings bit-identically to the standalone
// NewCWM, NewCDCM and NewResilience, also when several lanes run
// concurrently over the shared instance (run it under -race).
func TestInstanceEvaluatorsMatchStandalone(t *testing.T) {
	suite, err := exp.Table1Suite()
	if err != nil {
		t.Fatal(err)
	}
	cfg := noc.Default()
	rows := 0
	for _, w := range suite {
		if w.MeshW*w.MeshH > 12 {
			continue
		}
		rows++
		mesh, err := w.Mesh()
		if err != nil {
			t.Fatal(err)
		}
		fs := topology.NewFaultSet(mesh)
		if err := fs.FailLink(0, 1); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(rows)))
		mps := make([]mapping.Mapping, 12)
		for i := range mps {
			if mps[i], err = mapping.Random(rng, w.G.NumCores(), mesh.NumTiles()); err != nil {
				t.Fatal(err)
			}
		}
		in, err := core.NewInstance(mesh, cfg, w.G, fs)
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range []energy.Tech{energy.Tech035, energy.Tech007} {
			cwm, err := core.NewCWM(mesh, cfg, tech, w.G.ToCWG())
			if err != nil {
				t.Fatal(err)
			}
			cdcm, err := core.NewCDCM(mesh, cfg, tech, w.G)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.NewResilience(mesh, cfg, tech, w.G, fs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := laneCosts(mps, cwm, cdcm, res)
			if err != nil {
				t.Fatal(err)
			}

			const lanes = 3
			got := make([][]uint64, lanes)
			errs := make([]error, lanes)
			var wg sync.WaitGroup
			for l := 0; l < lanes; l++ {
				wg.Add(1)
				go func(l int) {
					defer wg.Done()
					got[l], errs[l] = laneCosts(mps, in.CWM(tech), in.CDCM(tech), in.Resilience(tech))
				}(l)
			}
			wg.Wait()
			for l := 0; l < lanes; l++ {
				if errs[l] != nil {
					t.Fatalf("%s %s lane %d: %v", w.Name, tech.Name, l, errs[l])
				}
				for i := range want {
					if got[l][i] != want[i] {
						t.Fatalf("%s %s lane %d: mapping %d evaluator %d costs %x, standalone %x",
							w.Name, tech.Name, l, i/3, i%3, got[l][i], want[i])
					}
				}
			}
		}
	}
	if rows != 15 {
		t.Fatalf("%d Table-1 rows of at most 12 tiles, want 15", rows)
	}
}
