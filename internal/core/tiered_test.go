package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/appgen"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/topology"
)

// tieredGrid is one (mesh, application) pair of the two-tier test matrix;
// the instance is regenerated per grid so every core fits.
type tieredGrid struct {
	name string
	mesh *topology.Mesh
	g    *model.CDCG
}

func tieredGrids(t testing.TB) []tieredGrid {
	t.Helper()
	mk := func(name string, mesh *topology.Mesh, err error, cores int) tieredGrid {
		if err != nil {
			t.Fatal(err)
		}
		g, err := appgen.Generate(appgen.Params{
			Name:      "tiered-" + name,
			Cores:     cores,
			Packets:   8 * cores,
			TotalBits: int64(5000 * cores),
			Seed:      99,
			Chains:    cores / 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tieredGrid{name: name, mesh: mesh, g: g}
	}
	m2, err2 := topology.NewMesh(4, 3)
	m3, err3 := topology.NewMesh3D(3, 2, 2)
	tr, errT := topology.NewTorus3D(3, 2, 2)
	return []tieredGrid{
		mk("mesh2d", m2, err2, 10),
		mk("mesh3d", m3, err3, 10),
		mk("torus3d", tr, errT, 10),
	}
}

// tieredCfg exercises the vadj path on 3-D grids: a TSV hop slower than a
// planar link makes the V·(tTSV−tl) critical-path term non-zero.
func tieredCfg() noc.Config {
	cfg := noc.Default()
	cfg.TSVLinkCycles = 3
	return cfg
}

// uncertified hides CDCM's PriceBelow from the engines: the reference
// run every candidate of which is simulated in full.
func uncertified(c *CDCM) search.Objective { return search.ObjectiveFunc(c.Cost) }

// TestTierAHillTabuBitIdentical is tier A's central contract for the
// strict-improvement engines: a HillClimber or Tabu run over a CDCM,
// which certifies through PriceBelow, must retrace the uncertified run
// bit for bit — same Best, same BestCost, same Evaluations and
// Improvements — while actually skipping bound-rejected swaps
// (BoundSkips > 0). Every bound skip is a skipped pricing, and the
// evaluator simulates exactly the candidates counted as exact. Covered
// on 2-D mesh, 3-D mesh and 3-D torus.
func TestTierAHillTabuBitIdentical(t *testing.T) {
	cfg, tech := tieredCfg(), energy.Tech007
	for _, grid := range tieredGrids(t) {
		cdcm, err := NewCDCM(grid.mesh, cfg, tech, grid.g)
		if err != nil {
			t.Fatal(err)
		}
		run := func(engine string, obj search.Objective) *search.Result {
			prob := search.Problem{Mesh: grid.mesh, NumCores: grid.g.NumCores(), Obj: obj}
			var res *search.Result
			var err error
			if engine == "hill" {
				res, err = (&search.HillClimber{Problem: prob, Seed: 7}).Run()
			} else {
				res, err = (&search.Tabu{Problem: prob, Seed: 7, Iterations: 40}).Run()
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", grid.name, engine, err)
			}
			return res
		}
		for _, engine := range []string{"hill", "tabu"} {
			bare := run(engine, uncertified(cdcm.Clone()))
			counted := &cutCounter{CDCM: cdcm.Clone()}
			counted.Evals = &obs.Counter{}
			tiered := run(engine, counted)

			if !mapping.Equal(bare.Best, tiered.Best) {
				t.Fatalf("%s/%s: tiered best %v != bare best %v", grid.name, engine, tiered.Best, bare.Best)
			}
			if math.Float64bits(bare.BestCost) != math.Float64bits(tiered.BestCost) {
				t.Fatalf("%s/%s: tiered cost %x != bare cost %x", grid.name, engine,
					math.Float64bits(tiered.BestCost), math.Float64bits(bare.BestCost))
			}
			if bare.Evaluations != tiered.Evaluations || bare.Improvements != tiered.Improvements {
				t.Fatalf("%s/%s: tiered (evals %d, impr %d) != bare (evals %d, impr %d)",
					grid.name, engine, tiered.Evaluations, tiered.Improvements,
					bare.Evaluations, bare.Improvements)
			}
			if tiered.BoundSkips == 0 {
				t.Fatalf("%s/%s: bound filter never skipped a swap", grid.name, engine)
			}
			if bare.BoundSkips != 0 || bare.SurrogateEvals != 0 {
				t.Fatalf("%s/%s: bare run reports tier counters (%d skips, %d surrogate)",
					grid.name, engine, bare.BoundSkips, bare.SurrogateEvals)
			}
			checkTierSum(t, grid.name+"/"+engine+"/bare", bare)
			checkTierSum(t, grid.name+"/"+engine+"/tiered", tiered)
			if bare.ExactEvals != bare.Evaluations {
				t.Fatalf("%s/%s: bare ExactEvals %d != Evaluations %d",
					grid.name, engine, bare.ExactEvals, bare.Evaluations)
			}
			if counted.skips != tiered.BoundSkips {
				t.Fatalf("%s/%s: %d skipped pricings for %d bound skips",
					grid.name, engine, counted.skips, tiered.BoundSkips)
			}
			// The starting mapping of each walk is priced with Cost, every
			// other exact evaluation through PriceBelow; both simulate once.
			if got := counted.Evals.Value(); got != tiered.ExactEvals {
				t.Fatalf("%s/%s: %d simulations for %d exact evaluations", grid.name, engine, got, tiered.ExactEvals)
			}
		}
	}
}

func checkTierSum(t *testing.T, name string, res *search.Result) {
	t.Helper()
	if got := res.ExactEvals + res.BoundSkips + res.SurrogateEvals; got != res.Evaluations {
		t.Fatalf("%s: tier counters sum to %d, Evaluations is %d", name, got, res.Evaluations)
	}
}

// preBound returns the largest bound CDCM.PriceBelow offers for mp:
// tier A, or the port-load bound when that is larger.
func preBound(t *testing.T, c *CDCM, mp mapping.Mapping) (float64, error) {
	t.Helper()
	var lb float64
	_, skipped, err := c.PriceBelow(mp, func(b float64) bool {
		lb = b
		return false
	})
	if err == nil && skipped {
		t.Fatal("PriceBelow skipped although every bound was declined")
	}
	return lb, err
}

// TestTierABoundCertified is the property test behind the skip rule: the
// bounds offered before the first packet (tier A and the port-load
// bound) never exceed the exact simulated cost — across 2-D/3-D/torus
// grids, and fault sets routed with RouteFault —
// on random mappings and on swaps of them.
func TestTierABoundCertified(t *testing.T) {
	tech := energy.Tech007
	for _, grid := range tieredGrids(t) {
		var faultSets []*topology.FaultSet
		faultSets = append(faultSets, nil)
		fs, err := topology.GenerateFaults(grid.mesh, 0.1, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !fs.Empty() {
			faultSets = append(faultSets, fs)
		}
		cfg := tieredCfg()
		for fi, fs := range faultSets {
			name := fmt.Sprintf("%s/faults=%d", grid.name, fi)
			var exact *CDCM
			if fs == nil {
				exact, err = NewCDCM(grid.mesh, cfg, tech, grid.g)
			} else {
				exact, err = NewCDCMFaults(grid.mesh, cfg, tech, grid.g, fs)
			}
			if err != nil {
				t.Fatal(err)
			}
			exact.sim.PortLoadBound = true // the grids are below its core count
			rng := rand.New(rand.NewSource(11))
			tiles := grid.mesh.NumTiles()
			for trial := 0; trial < 12; trial++ {
				mp, err := mapping.Random(rng, grid.g.NumCores(), tiles)
				if err != nil {
					t.Fatal(err)
				}
				// check prices one candidate both ways.
				check := func(what string, mp mapping.Mapping) {
					t.Helper()
					cost, err := exact.Cost(mp)
					if errors.Is(err, topology.ErrUnreachable) {
						return
					}
					if err != nil {
						t.Fatalf("%s trial %d %s: %v", name, trial, what, err)
					}
					lb, err := preBound(t, exact, mp)
					if err != nil {
						t.Fatalf("%s trial %d %s: %v", name, trial, what, err)
					}
					if lb > cost {
						t.Fatalf("%s trial %d %s: bound %.17g exceeds exact %.17g", name, trial, what, lb, cost)
					}
				}
				check("base", mp)
				for s := 0; s < 8; s++ {
					ta := topology.TileID(rng.Intn(tiles))
					tb := topology.TileID(rng.Intn(tiles))
					if ta == tb {
						continue
					}
					sm := mp.Clone()
					mapping.SwapTiles(sm, mp.Occupants(tiles), ta, tb)
					check(fmt.Sprintf("swap (%d,%d)", ta, tb), sm)
				}
			}
		}
	}
}

// TestSurrogateDeltaAndCollapseIdentity pins the tier-B evaluator's
// internal consistency: its incremental path reproduces its full path bit
// for bit (SwapDelta equals the difference of full costs; Commit returns
// the full cost of the updated baseline), and its scalar equals the
// collapsed vector — the same contracts CWM and CDCM honour.
func TestSurrogateDeltaAndCollapseIdentity(t *testing.T) {
	mesh, g := deltaInstance3D(t, 3, 2, 2, 10)
	cfg, tech := tieredCfg(), energy.Tech007
	in, err := NewInstance(mesh, cfg, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := fitSurrogate(in.CWM(tech), in.CDCM(tech), 21, 8)
	if err != nil {
		t.Fatal(err)
	}
	surr := &cdcmSurrogate{cwm: in.CWM(tech), fit: fit}
	rng := rand.New(rand.NewSource(4))
	tiles := mesh.NumTiles()
	comps := make([]float64, len(surr.Axes()))
	for trial := 0; trial < 10; trial++ {
		mp, err := mapping.Random(rng, g.NumCores(), tiles)
		if err != nil {
			t.Fatal(err)
		}
		base, err := surr.Reset(mp)
		if err != nil {
			t.Fatal(err)
		}
		full, err := surr.Cost(mp)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(base) != math.Float64bits(full) {
			t.Fatalf("trial %d: Reset %x != Cost %x", trial, math.Float64bits(base), math.Float64bits(full))
		}
		if err := surr.ComponentsInto(mp, comps); err != nil {
			t.Fatal(err)
		}
		if c := search.Collapse(surr.CollapseWeights(), comps); math.Float64bits(c) != math.Float64bits(full) {
			t.Fatalf("trial %d: collapse %x != Cost %x", trial, math.Float64bits(c), math.Float64bits(full))
		}
		occ := mp.Occupants(tiles)
		for s := 0; s < 6; s++ {
			ta := topology.TileID(rng.Intn(tiles))
			tb := topology.TileID(rng.Intn(tiles))
			if ta == tb {
				continue
			}
			d, err := surr.SwapDelta(occ, ta, tb)
			if err != nil {
				t.Fatal(err)
			}
			sm := mp.Clone()
			socc := mp.Occupants(tiles)
			mapping.SwapTiles(sm, socc, ta, tb)
			sfull, err := surr.Cost(sm)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(d) != math.Float64bits(sfull-full) {
				t.Fatalf("trial %d swap (%d,%d): delta %x != cost difference %x",
					trial, ta, tb, math.Float64bits(d), math.Float64bits(sfull-full))
			}
			// Fold the swap in and check Commit's return against the full
			// path, then rebind the original baseline for the next probe.
			if c := surr.Commit(ta, tb); math.Float64bits(c) != math.Float64bits(sfull) {
				t.Fatalf("trial %d: Commit %x != swapped Cost %x", trial, math.Float64bits(c), math.Float64bits(sfull))
			}
			if _, err := surr.Reset(mp); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSurrogateFitDeterministic pins the calibration: a fixed (instance,
// seed, samples) triple always yields the same fit, and different seeds
// are allowed to differ (they sample different mappings).
func TestSurrogateFitDeterministic(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 8)
	cfg, tech := noc.Default(), energy.Tech007
	in, err := NewInstance(mesh, cfg, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact, feat := in.CDCM(tech), in.CWM(tech)
	a, err := fitSurrogate(feat, exact, 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fitSurrogate(feat, exact, 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.A) != math.Float64bits(b.A) || math.Float64bits(a.B) != math.Float64bits(b.B) {
		t.Fatalf("same seed, different fits: %+v vs %+v", a, b)
	}
	if a.B < 0 {
		t.Fatalf("fitted slope is negative: %+v", a)
	}
}

// TestSurrogateSADeterministicAcrossWorkers is the tier-B acceptance
// gate: a surrogate-driven SA exploration is deterministic for every
// worker count, reports a Best whose cost a fresh exact evaluator
// reproduces bit for bit, and splits its evaluation counters so that
// Evaluations = ExactEvals + SurrogateEvals.
func TestSurrogateSADeterministicAcrossWorkers(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 8)
	cfg, tech := noc.Default(), energy.Tech007
	var ref *ExploreResult
	for workers := 1; workers <= 3; workers++ {
		res, err := Explore(StrategyCDCM, mesh, cfg, tech, g, Options{
			Method: MethodSA, Seed: 5, Surrogate: true, SurrogateSamples: 10,
			TempSteps: 12, MovesPerTemp: 20, Restarts: 3, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Search.SurrogateEvals == 0 {
			t.Fatalf("workers=%d: surrogate never priced a candidate", workers)
		}
		if res.Search.ExactEvals == 0 {
			t.Fatalf("workers=%d: no exact evaluations at all", workers)
		}
		if res.Search.BoundSkips != 0 {
			t.Fatalf("workers=%d: surrogate SA reports %d bound skips; tier A never joins a surrogate walk",
				workers, res.Search.BoundSkips)
		}
		checkTierSum(t, fmt.Sprintf("workers=%d", workers), res.Search)
		fresh, err := NewCDCM(mesh, cfg, tech, g)
		if err != nil {
			t.Fatal(err)
		}
		m, err := fresh.Evaluate(res.Best)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(m.Total()) != math.Float64bits(res.Search.BestCost) {
			t.Fatalf("workers=%d: BestCost %x is not the exact price %x — a surrogate value leaked",
				workers, math.Float64bits(res.Search.BestCost), math.Float64bits(m.Total()))
		}
		if ref == nil {
			ref = res
			continue
		}
		if !mapping.Equal(ref.Best, res.Best) ||
			math.Float64bits(ref.Search.BestCost) != math.Float64bits(res.Search.BestCost) ||
			ref.Search.Evaluations != res.Search.Evaluations ||
			ref.Search.ExactEvals != res.Search.ExactEvals ||
			ref.Search.SurrogateEvals != res.Search.SurrogateEvals {
			t.Fatalf("workers=%d diverges from workers=1: (%v, %g, %d/%d/%d) vs (%v, %g, %d/%d/%d)",
				workers, res.Best, res.Search.BestCost, res.Search.Evaluations,
				res.Search.ExactEvals, res.Search.SurrogateEvals,
				ref.Best, ref.Search.BestCost, ref.Search.Evaluations,
				ref.Search.ExactEvals, ref.Search.SurrogateEvals)
		}
	}
}

// TestSurrogateParetoFrontExact is tier B's front-side acceptance gate:
// a surrogate-driven Pareto exploration stays deterministic across worker
// counts and every returned front point carries exact components — a
// fresh CDCM reproduces them bit for bit.
func TestSurrogateParetoFrontExact(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 8)
	cfg, tech := noc.Default(), energy.Tech007
	var ref *ExploreResult
	for workers := 1; workers <= 2; workers++ {
		res, err := Explore(StrategyPareto, mesh, cfg, tech, g, Options{
			Seed: 9, Surrogate: true, SurrogateSamples: 10,
			TempSteps: 10, MovesPerTemp: 15, Restarts: 2, FrontSize: 8, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		front := res.Front
		if front.SurrogateEvals == 0 {
			t.Fatalf("workers=%d: surrogate never priced a candidate", workers)
		}
		if got := front.ExactEvals + front.SurrogateEvals; got != front.Evaluations {
			t.Fatalf("workers=%d: front counters sum to %d, Evaluations is %d",
				workers, got, front.Evaluations)
		}
		checkTierSum(t, fmt.Sprintf("pareto workers=%d", workers), res.Search)
		fresh, err := NewCDCM(mesh, cfg, tech, g)
		if err != nil {
			t.Fatal(err)
		}
		comps := make([]float64, len(front.Axes))
		for i, p := range front.Points {
			if err := fresh.ComponentsInto(p.Mapping, comps); err != nil {
				t.Fatal(err)
			}
			for a := range comps {
				if math.Float64bits(comps[a]) != math.Float64bits(p.Components[a]) {
					t.Fatalf("workers=%d point %d axis %s: archived %x != exact %x — a surrogate component leaked",
						workers, i, front.Axes[a], math.Float64bits(p.Components[a]), math.Float64bits(comps[a]))
				}
			}
		}
		if ref == nil {
			ref = res
			continue
		}
		rf := ref.Front
		if len(rf.Points) != len(front.Points) {
			t.Fatalf("workers=%d: front size %d != workers=1 size %d", workers, len(front.Points), len(rf.Points))
		}
		for i := range front.Points {
			if !mapping.Equal(rf.Points[i].Mapping, front.Points[i].Mapping) ||
				math.Float64bits(rf.Points[i].Cost) != math.Float64bits(front.Points[i].Cost) {
				t.Fatalf("workers=%d: front point %d diverges from workers=1", workers, i)
			}
		}
		if !mapping.Equal(ref.Best, res.Best) {
			t.Fatalf("workers=%d: best %v != workers=1 best %v", workers, res.Best, ref.Best)
		}
	}
}

// TestSurrogateIgnoredWhereInapplicable pins the Options.Surrogate
// contract: the flag is a no-op — bit for bit — for the engines that
// cannot use it (hill/tabu, which carry tier A instead, and CWM runs).
func TestSurrogateIgnoredWhereInapplicable(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 8)
	cfg, tech := noc.Default(), energy.Tech007
	for _, tc := range []struct {
		name  string
		strat Strategy
		mth   Method
	}{
		{"cdcm-hill", StrategyCDCM, MethodHill},
		{"cdcm-tabu", StrategyCDCM, MethodTabu},
		{"cwm-sa", StrategyCWM, MethodSA},
	} {
		opts := Options{Method: tc.mth, Seed: 3, TempSteps: 8, MovesPerTemp: 10}
		plain, err := Explore(tc.strat, mesh, cfg, tech, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Surrogate = true
		flagged, err := Explore(tc.strat, mesh, cfg, tech, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !mapping.Equal(plain.Best, flagged.Best) ||
			math.Float64bits(plain.Search.BestCost) != math.Float64bits(flagged.Search.BestCost) ||
			plain.Search.Evaluations != flagged.Search.Evaluations ||
			flagged.Search.SurrogateEvals != 0 {
			t.Fatalf("%s: Surrogate flag changed the run", tc.name)
		}
	}
}

// TestExploreHillTabuUsesBound pins the Explore wiring: CDCM hill/tabu
// runs certify through tier A (BoundSkips > 0) and still reproduce the
// uncertified engine's trajectory bit for bit.
func TestExploreHillTabuUsesBound(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 8)
	cfg, tech := noc.Default(), energy.Tech007
	cdcm, err := NewCDCM(mesh, cfg, tech, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, mth := range []Method{MethodHill, MethodTabu} {
		res, err := Explore(StrategyCDCM, mesh, cfg, tech, g, Options{Method: mth, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		if res.Search.BoundSkips == 0 {
			t.Fatalf("%v: Explore's run did not certify through the tier-A bound", mth)
		}
		checkTierSum(t, mth.String(), res.Search)
		prob := search.Problem{Mesh: mesh, NumCores: g.NumCores(), Obj: uncertified(cdcm.Clone())}
		var bare *search.Result
		if mth == MethodHill {
			bare, err = (&search.HillClimber{Problem: prob, Seed: 13}).Run()
		} else {
			bare, err = (&search.Tabu{Problem: prob, Seed: 13}).Run()
		}
		if err != nil {
			t.Fatal(err)
		}
		if !mapping.Equal(bare.Best, res.Best) ||
			math.Float64bits(bare.BestCost) != math.Float64bits(res.Search.BestCost) ||
			bare.Evaluations != res.Search.Evaluations {
			t.Fatalf("%v: Explore run diverges from bare engine", mth)
		}
	}
}

// saTrace is what one annealing run reports: the result, the final
// Accepted/Rejected counts of each restart's progress stream, and the
// number of progress snapshots (temperature steps) over all restarts.
type saTrace struct {
	res      *search.Result
	accepted map[int]int64
	rejected map[int]int64
	steps    int
}

// checkSATraceEqual asserts that a tiered annealing run retraced a bare
// one: same winner, same cost bits, same counts and move decisions.
func checkSATraceEqual(t *testing.T, name string, bare, tiered saTrace) {
	t.Helper()
	b, r := bare.res, tiered.res
	if !mapping.Equal(b.Best, r.Best) {
		t.Fatalf("%s: tiered best %v != bare best %v", name, r.Best, b.Best)
	}
	if math.Float64bits(b.BestCost) != math.Float64bits(r.BestCost) ||
		math.Float64bits(b.InitialCost) != math.Float64bits(r.InitialCost) {
		t.Fatalf("%s: tiered costs (%x, initial %x) != bare (%x, initial %x)", name,
			math.Float64bits(r.BestCost), math.Float64bits(r.InitialCost),
			math.Float64bits(b.BestCost), math.Float64bits(b.InitialCost))
	}
	if b.Evaluations != r.Evaluations || b.Improvements != r.Improvements {
		t.Fatalf("%s: tiered (evals %d, impr %d) != bare (evals %d, impr %d)", name,
			r.Evaluations, r.Improvements, b.Evaluations, b.Improvements)
	}
	if len(bare.accepted) == 0 {
		t.Fatalf("%s: no progress snapshots", name)
	}
	for i, acc := range bare.accepted {
		if tiered.accepted[i] != acc || tiered.rejected[i] != bare.rejected[i] {
			t.Fatalf("%s restart %d: tiered accepted/rejected %d/%d != bare %d/%d", name, i,
				tiered.accepted[i], tiered.rejected[i], acc, bare.rejected[i])
		}
	}
	if r.BoundSkips == 0 {
		t.Fatalf("%s: bound never rejected a move", name)
	}
	if b.BoundSkips != 0 || b.ExactEvals != b.Evaluations {
		t.Fatalf("%s: bare run reports tier counters (%d skips, %d/%d exact)", name,
			b.BoundSkips, b.ExactEvals, b.Evaluations)
	}
	checkTierSum(t, name+"/bare", b)
	checkTierSum(t, name+"/tiered", r)
}

// TestTierASABitIdentical pins certified Metropolis rejection: an
// Annealer over a CDCM, which certifies through PriceBelow, must retrace
// the uncertified walk bit for bit — Best, BestCost, InitialCost,
// Evaluations, Improvements and every restart's accepted/rejected
// decisions — while skipping the simulation of moves the bound already
// rejects. Covered on 2-D mesh, 3-D mesh and 3-D torus with reheats, and
// through MultiAnnealer at one and two workers.
func TestTierASABitIdentical(t *testing.T) {
	cfg, tech := tieredCfg(), energy.Tech007
	for _, grid := range tieredGrids(t) {
		cdcm, err := NewCDCM(grid.mesh, cfg, tech, grid.g)
		if err != nil {
			t.Fatal(err)
		}
		tieredObj := func() (search.Objective, error) { return cdcm.Clone(), nil }
		bareObj := func() (search.Objective, error) { return uncertified(cdcm.Clone()), nil }
		base := search.Annealer{
			Problem:   search.Problem{Mesh: grid.mesh, NumCores: grid.g.NumCores()},
			Seed:      7,
			TempSteps: 80, MovesPerTemp: 30, Alpha: 0.8, StallSteps: 8, Reheats: 2,
		}
		run := func(a search.Annealer, restarts, workers int, factory search.ObjectiveFactory) saTrace {
			tr := saTrace{accepted: map[int]int64{}, rejected: map[int]int64{}}
			var pmu sync.Mutex
			a.OnProgress = func(p search.Progress) {
				pmu.Lock()
				tr.accepted[p.Restart], tr.rejected[p.Restart] = p.Accepted, p.Rejected
				tr.steps++
				pmu.Unlock()
			}
			var err error
			if restarts == 0 {
				if a.Problem.Obj, err = factory(); err != nil {
					t.Fatal(err)
				}
				tr.res, err = a.Run()
			} else {
				tr.res, err = (&search.MultiAnnealer{Base: a, Restarts: restarts,
					Workers: workers, NewObjective: factory}).Run()
			}
			if err != nil {
				t.Fatalf("%s: %v", grid.name, err)
			}
			return tr
		}

		single := run(base, 0, 1, tieredObj)
		checkSATraceEqual(t, grid.name+"/single", run(base, 0, 1, bareObj), single)
		// A reheat shows as temperature steps past the point where the
		// same walk without reheats stalls out.
		cold := base
		cold.Reheats = 0
		if c := run(cold, 0, 1, tieredObj); single.steps <= c.steps {
			t.Fatalf("%s: the walk never reheated (%d steps, %d without reheats)",
				grid.name, single.steps, c.steps)
		}
		bare := run(base, 3, 1, bareObj)
		for _, workers := range []int{1, 2} {
			checkSATraceEqual(t, fmt.Sprintf("%s/restarts3/workers%d", grid.name, workers),
				bare, run(base, 3, workers, tieredObj))
		}
	}
}

// TestExploreSAUsesBound pins the Explore wiring of certified Metropolis
// rejection: plain CDCM SA certifies through tier A and still reproduces
// the uncertified walk bit for bit; SA with the tier-B surrogate does not
// certify (its decisions run on surrogate deltas) and reports no skips.
func TestExploreSAUsesBound(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 8)
	cfg, tech := noc.Default(), energy.Tech007
	opts := Options{Method: MethodSA, Seed: 13, TempSteps: 20, MovesPerTemp: 20}
	res, err := Explore(StrategyCDCM, mesh, cfg, tech, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Search.BoundSkips == 0 {
		t.Fatal("Explore's SA did not certify through the tier-A bound")
	}
	checkTierSum(t, "sa", res.Search)
	cdcm, err := NewCDCM(mesh, cfg, tech, g)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := (&search.Annealer{
		Problem: search.Problem{Mesh: mesh, NumCores: g.NumCores(), Obj: uncertified(cdcm)},
		Seed:    13, TempSteps: 20, MovesPerTemp: 20,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !mapping.Equal(bare.Best, res.Best) ||
		math.Float64bits(bare.BestCost) != math.Float64bits(res.Search.BestCost) ||
		bare.Evaluations != res.Search.Evaluations ||
		bare.Improvements != res.Search.Improvements {
		t.Fatal("Explore SA run diverges from the bare engine")
	}

	opts.Surrogate = true
	surr, err := Explore(StrategyCDCM, mesh, cfg, tech, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if surr.Search.BoundSkips != 0 {
		t.Fatalf("surrogate SA reports %d bound skips, want 0", surr.Search.BoundSkips)
	}
	if surr.Search.SurrogateEvals == 0 {
		t.Fatal("surrogate SA priced nothing on the surrogate")
	}
	checkTierSum(t, "sa+surrogate", surr.Search)
}
