package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/appgen"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/noc"
	"repro/internal/topology"
)

// TestCDCMCloneConcurrentBitIdentical races clone lanes of one shared
// CDCM evaluator — the exact configuration the parallel search engines
// run — and requires every concurrently computed cost to equal the
// serial evaluator's bit for bit. Run with -race in CI.
func TestCDCMCloneConcurrentBitIdentical(t *testing.T) {
	mesh, err := topology.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := appgen.Generate(appgen.Params{
		Name: "clone-race", Cores: 8, Packets: 48, TotalBits: 30000, Seed: 9, Chains: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewCDCM(mesh, noc.Default(), energy.Tech007, g)
	if err != nil {
		t.Fatal(err)
	}
	if base.Clone().sim != base.sim {
		t.Fatal("clone does not share the simulator core")
	}

	rng := rand.New(rand.NewSource(3))
	const nMaps = 64
	mps := make([]mapping.Mapping, nMaps)
	want := make([]float64, nMaps)
	for i := range mps {
		if mps[i], err = mapping.Random(rng, 8, 16); err != nil {
			t.Fatal(err)
		}
		if want[i], err = base.Cost(mps[i]); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	got := make([]float64, nMaps)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := base.Clone()
			for i := w; i < nMaps; i += workers {
				c, err := lane.Cost(mps[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = c
				if i%8 == w%8 {
					// Simulate is part of the clone concurrency contract
					// too (it runs on the lane's own scratch).
					if _, m, err := lane.Simulate(mps[i]); err != nil || m.Total() != c {
						t.Errorf("mapping %d: concurrent Simulate = %v, %v (cost %g)", i, m.Total(), err, c)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mapping %d: clone cost %g != serial %g", i, got[i], want[i])
		}
	}
}

// TestCDCMCostMatchesSimulate pins the two evaluation paths of one CDCM
// against each other: the scratch-backed Cost/Evaluate hot path and the
// independent-Result Simulate path must price every mapping identically.
func TestCDCMCostMatchesSimulate(t *testing.T) {
	mesh, err := topology.NewMesh3D(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := noc.Default()
	cfg.Routing = topology.RouteXYZ
	cfg.TSVLinkCycles = 2
	g, err := appgen.Generate(appgen.Params{
		Name: "scratch-vs-run", Cores: 6, Packets: 40, TotalBits: 20000, Seed: 4, Chains: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cdcm, err := NewCDCM(mesh, cfg, energy.Tech007, g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 16; trial++ {
		mp, err := mapping.Random(rng, 6, 8)
		if err != nil {
			t.Fatal(err)
		}
		viaScratch, err := cdcm.Evaluate(mp)
		if err != nil {
			t.Fatal(err)
		}
		_, viaRun, err := cdcm.Simulate(mp)
		if err != nil {
			t.Fatal(err)
		}
		if viaScratch != viaRun {
			t.Fatalf("trial %d: scratch metrics %+v != run metrics %+v", trial, viaScratch, viaRun)
		}
	}
}

// TestExploreCDCM3DDeterministicAcrossWorkers extends the CDCM
// workers-determinism pin to a stacked instance: multi-restart SA over
// the scratch-lane objective on a 2x2x2 mesh with XYZ routing and TSV
// latency, bit-identical for workers 1..N (runs under -race in CI).
func TestExploreCDCM3DDeterministicAcrossWorkers(t *testing.T) {
	mesh, err := topology.NewMesh3D(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := noc.Default()
	cfg.Routing = topology.RouteXYZ
	cfg.TSVLinkCycles = 2
	g, err := appgen.Generate(appgen.Params{
		Name: "scratch-3d", Cores: 6, Packets: 36, TotalBits: 18000, Seed: 6, Chains: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ref *ExploreResult
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := Explore(StrategyCDCM, mesh, cfg, energy.Tech007, g, Options{
			Method: MethodSA, Seed: 11, TempSteps: 8, Restarts: 4, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !exploreEqual(ref, res) {
			t.Fatalf("workers=%d diverged: best %g vs %g",
				workers, res.Search.BestCost, ref.Search.BestCost)
		}
	}
}
