package search

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mapping"
	"repro/internal/topology"
)

// wireLength is a miniature CWM-like objective: total bits×hops over a
// fixed traffic pattern. Its global optimum is known by exhaustive search.
type wireLength struct {
	mesh  *topology.Mesh
	flows [][3]int // src core, dst core, weight
}

func (w *wireLength) Cost(mp mapping.Mapping) (float64, error) {
	var sum float64
	for _, f := range w.flows {
		sum += float64(f[2] * w.mesh.MinHops(mp[f[0]], mp[f[1]]))
	}
	return sum, nil
}

func testProblem(t *testing.T, w, h, cores int) (Problem, *wireLength) {
	return testProblem3D(t, w, h, 1, cores)
}

// testProblem3D is testProblem over a stacked W×H×D mesh; wireLength
// already measures 3-D Manhattan distance through Mesh.MinHops.
func testProblem3D(t *testing.T, w, h, d, cores int) (Problem, *wireLength) {
	t.Helper()
	mesh, err := topology.NewMesh3D(w, h, d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var flows [][3]int
	for i := 0; i < cores; i++ {
		for j := 0; j < cores; j++ {
			if i != j && rng.Float64() < 0.4 {
				flows = append(flows, [3]int{i, j, 1 + rng.Intn(100)})
			}
		}
	}
	obj := &wireLength{mesh: mesh, flows: flows}
	return Problem{Mesh: mesh, NumCores: cores, Obj: obj}, obj
}

func TestExhaustiveCertifiesOptimum(t *testing.T) {
	p, _ := testProblem(t, 2, 2, 4)
	res, err := (&ShardedExhaustive{Problem: p}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Fatal("full enumeration not certified")
	}
	if res.Evaluations != 24 {
		t.Fatalf("evaluations = %d, want 4! = 24", res.Evaluations)
	}
	if err := res.Best.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustiveAnchorSameOptimum(t *testing.T) {
	p, _ := testProblem(t, 3, 2, 5)
	full, err := (&ShardedExhaustive{Problem: p}).Run()
	if err != nil {
		t.Fatal(err)
	}
	anchored, err := (&ShardedExhaustive{Problem: p, Anchor: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if full.BestCost != anchored.BestCost {
		t.Fatalf("anchor changed optimum: %g vs %g", anchored.BestCost, full.BestCost)
	}
	if anchored.Evaluations >= full.Evaluations {
		t.Fatalf("anchor did not shrink the space: %d vs %d", anchored.Evaluations, full.Evaluations)
	}
}

func TestExhaustiveLimit(t *testing.T) {
	p, _ := testProblem(t, 2, 2, 4)
	res, err := (&ShardedExhaustive{Problem: p, Limit: 5}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Certified {
		t.Fatal("truncated run claims certification")
	}
	if res.Evaluations != 5 {
		t.Fatalf("evaluations = %d, want 5", res.Evaluations)
	}
}

func TestAnnealerMatchesExhaustiveOnSmallInstance(t *testing.T) {
	p, _ := testProblem(t, 2, 2, 4)
	ex := bruteForce(t, p, false, 0, false)
	sa, err := (&Annealer{Problem: p, Seed: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if sa.BestCost != ex.BestCost {
		t.Fatalf("SA best %g != optimum %g", sa.BestCost, ex.BestCost)
	}
}

func TestAnnealerNeverWorseThanInitial(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p, _ := testProblem(t, 3, 3, 6)
		res, err := (&Annealer{Problem: p, Seed: seed, TempSteps: 20}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.BestCost > res.InitialCost {
			t.Fatalf("seed %d: best %g worse than initial %g", seed, res.BestCost, res.InitialCost)
		}
		if err := res.Best.Validate(9); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAnnealerDeterministicUnderSeed(t *testing.T) {
	p, _ := testProblem(t, 3, 3, 6)
	a := &Annealer{Problem: p, Seed: 99, TempSteps: 15}
	r1, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.BestCost != r2.BestCost || r1.Evaluations != r2.Evaluations || !mapping.Equal(r1.Best, r2.Best) {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
}

func TestAnnealerInitialMapping(t *testing.T) {
	p, _ := testProblem(t, 2, 2, 4)
	init := mapping.Identity(4)
	res, err := (&Annealer{Problem: p, Seed: 3, Initial: init, TempSteps: 10}).Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := p.Obj.Cost(init)
	if res.InitialCost != want {
		t.Fatalf("initial cost %g, want %g", res.InitialCost, want)
	}
	// The provided initial mapping must not be mutated by the search.
	if !mapping.Equal(init, mapping.Identity(4)) {
		t.Fatal("annealer mutated caller's initial mapping")
	}
}

func TestAnnealerParameterValidation(t *testing.T) {
	p, _ := testProblem(t, 2, 2, 4)
	if _, err := (&Annealer{Problem: p, Alpha: 1.5}).Run(); err == nil {
		t.Fatal("alpha > 1 accepted")
	}
	if _, err := (&Annealer{Problem: p, Initial: mapping.Mapping{0}}).Run(); err == nil {
		t.Fatal("short initial mapping accepted")
	}
	if _, err := (&Annealer{Problem: p, Initial: mapping.Mapping{0, 0, 1, 2}}).Run(); err == nil {
		t.Fatal("invalid initial mapping accepted")
	}
	bad := Problem{Mesh: p.Mesh, NumCores: 99, Obj: p.Obj}
	if _, err := (&Annealer{Problem: bad}).Run(); err == nil {
		t.Fatal("oversubscribed problem accepted")
	}
	if _, err := (&Annealer{Problem: Problem{Mesh: p.Mesh, NumCores: 2}}).Run(); err == nil {
		t.Fatal("nil objective accepted")
	}
	if _, err := (&Annealer{Problem: Problem{NumCores: 2, Obj: p.Obj}}).Run(); err == nil {
		t.Fatal("nil mesh accepted")
	}
}

func TestNegativeBudgetsRejected(t *testing.T) {
	p, _ := testProblem(t, 2, 2, 4)
	if _, err := (&HillClimber{Problem: p, Restarts: -1}).Run(); err == nil {
		t.Error("negative hill-climbing restarts accepted")
	}
	if _, err := (&RandomSearch{Problem: p, Samples: -3}).Run(); err == nil {
		t.Error("negative random-search samples accepted")
	}
	for name, a := range map[string]Annealer{
		"moves per temperature": {MovesPerTemp: -5},
		"temperature steps":     {TempSteps: -5},
		"stall steps":           {StallSteps: -1},
		"reheats":               {Reheats: -2},
	} {
		a.Problem = p
		if _, err := a.Run(); err == nil {
			t.Errorf("negative annealing %s accepted", name)
		}
		if _, err := (&MultiAnnealer{Base: a, Restarts: 2}).Run(); err == nil {
			t.Errorf("negative multi-restart annealing %s accepted", name)
		}
	}
	vp, _ := testVecProblem(t, 2, 2, 4)
	if _, err := (&ParetoSA{Problem: vp, TempSteps: -1}).Run(); err == nil {
		t.Error("negative Pareto temperature steps accepted")
	}
	if _, err := (&Tabu{Problem: p, Iterations: -4}).Run(); err == nil {
		t.Error("negative tabu iterations accepted")
	}
	if _, err := (&Tabu{Problem: p, Tenure: -1}).Run(); err == nil {
		t.Error("negative tabu tenure accepted")
	}
	if _, err := (&ShardedExhaustive{Problem: p, Limit: -1}).Run(); err == nil {
		t.Error("negative exhaustive limit accepted")
	}
}

func TestObjectiveErrorPropagates(t *testing.T) {
	mesh, _ := topology.NewMesh(2, 2)
	boom := errors.New("boom")
	p := Problem{Mesh: mesh, NumCores: 3, Obj: ObjectiveFunc(func(mapping.Mapping) (float64, error) {
		return 0, boom
	})}
	for _, tc := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"annealer", func() (*Result, error) { return (&Annealer{Problem: p}).Run() }},
		{"exhaustive", func() (*Result, error) { return (&ShardedExhaustive{Problem: p, Limit: 10}).Run() }},
		{"random", func() (*Result, error) { return (&RandomSearch{Problem: p, Samples: 5}).Run() }},
		{"hill", func() (*Result, error) { return (&HillClimber{Problem: p}).Run() }},
		{"tabu", func() (*Result, error) { return (&Tabu{Problem: p, Iterations: 3}).Run() }},
	} {
		name, run := tc.name, tc.run
		if _, err := run(); !errors.Is(err, boom) {
			t.Errorf("%s: error not propagated: %v", name, err)
		}
	}
}

func TestRandomSearchImprovesWithSamples(t *testing.T) {
	p, _ := testProblem(t, 3, 3, 7)
	small, err := (&RandomSearch{Problem: p, Seed: 5, Samples: 3}).Run()
	if err != nil {
		t.Fatal(err)
	}
	big, err := (&RandomSearch{Problem: p, Seed: 5, Samples: 300}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if big.BestCost > small.BestCost {
		t.Fatalf("more samples got worse: %g > %g", big.BestCost, small.BestCost)
	}
	if big.Evaluations != 300 {
		t.Fatalf("evaluations = %d", big.Evaluations)
	}
}

func TestHillClimberReachesLocalOptimum(t *testing.T) {
	p, _ := testProblem(t, 2, 2, 4)
	res, err := (&HillClimber{Problem: p, Seed: 7, Restarts: 2}).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Verify local optimality of the result: no single swap improves it.
	occ := res.Best.Occupants(4)
	cur := res.Best.Clone()
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			mapping.SwapTiles(cur, occ, topology.TileID(a), topology.TileID(b))
			c, _ := p.Obj.Cost(cur)
			mapping.SwapTiles(cur, occ, topology.TileID(a), topology.TileID(b))
			if c < res.BestCost {
				t.Fatalf("swap (%d,%d) improves hill-climbing result", a, b)
			}
		}
	}
}

func TestTabuFindsOptimumOnSmallInstance(t *testing.T) {
	p, _ := testProblem(t, 2, 2, 4)
	ex := bruteForce(t, p, false, 0, false)
	res, err := (&Tabu{Problem: p, Seed: 11, Iterations: 50}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost != ex.BestCost {
		t.Fatalf("tabu best %g != optimum %g", res.BestCost, ex.BestCost)
	}
}

func TestEnginesOnPartialOccupancy(t *testing.T) {
	// 5 cores on 9 tiles: moves must handle empty tiles.
	p, _ := testProblem(t, 3, 3, 5)
	for _, tc := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"annealer", func() (*Result, error) { return (&Annealer{Problem: p, Seed: 2, TempSteps: 10}).Run() }},
		{"random", func() (*Result, error) { return (&RandomSearch{Problem: p, Seed: 2, Samples: 50}).Run() }},
		{"hill", func() (*Result, error) { return (&HillClimber{Problem: p, Seed: 2, Restarts: 1}).Run() }},
		{"tabu", func() (*Result, error) { return (&Tabu{Problem: p, Seed: 2, Iterations: 20}).Run() }},
	} {
		name, run := tc.name, tc.run
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Best.Validate(9); err != nil {
			t.Fatalf("%s produced invalid mapping: %v", name, err)
		}
		if math.IsInf(res.BestCost, 0) {
			t.Fatalf("%s: no cost recorded", name)
		}
	}
}

func TestAnnealerZeroCostLandscape(t *testing.T) {
	// A flat objective exercises the T0 auto-calibration fallback path.
	mesh, _ := topology.NewMesh(2, 2)
	p := Problem{Mesh: mesh, NumCores: 3, Obj: ObjectiveFunc(func(mapping.Mapping) (float64, error) {
		return 0, nil
	})}
	res, err := (&Annealer{Problem: p, Seed: 1, TempSteps: 5}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost != 0 {
		t.Fatalf("flat landscape cost = %g", res.BestCost)
	}
}

func TestObjectiveFuncAdapter(t *testing.T) {
	f := ObjectiveFunc(func(mp mapping.Mapping) (float64, error) {
		return float64(len(mp)), nil
	})
	c, err := f.Cost(mapping.Mapping{0, 1})
	if err != nil || c != 2 {
		t.Fatalf("adapter: %g, %v", c, err)
	}
}

func TestSAScalesToLargerMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p, _ := testProblem(t, 5, 5, 18)
	rs, err := (&RandomSearch{Problem: p, Seed: 1, Samples: 200}).Run()
	if err != nil {
		t.Fatal(err)
	}
	sa, err := (&Annealer{Problem: p, Seed: 1, TempSteps: 40}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if sa.BestCost > rs.BestCost {
		t.Fatalf("SA (%g) lost to random sampling (%g)", sa.BestCost, rs.BestCost)
	}
}

func ExampleAnnealer() {
	mesh, _ := topology.NewMesh(2, 2)
	obj := ObjectiveFunc(func(mp mapping.Mapping) (float64, error) {
		// Place core 0 and core 1 adjacently.
		return float64(mesh.MinHops(mp[0], mp[1])), nil
	})
	res, _ := (&Annealer{
		Problem: Problem{Mesh: mesh, NumCores: 2, Obj: obj},
		Seed:    1,
	}).Run()
	fmt.Println(res.BestCost)
	// Output: 1
}
