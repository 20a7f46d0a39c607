package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// firstBound is a wormhole.Cutoff that keeps the bound offered before
// the first packet and lets the run complete.
type firstBound struct {
	lb    int64
	calls int
}

func (f *firstBound) Stop(_ wormhole.Traffic, texecLB int64) bool {
	if f.calls == 0 {
		f.lb = texecLB
	}
	f.calls++
	return false
}

// TestPriceBelowMatchesTierAAndCost pins CDCM.PriceBelow against the two
// pricings it stands between, on the tier-A fixtures (2-D mesh, 3-D mesh
// and 3-D torus, both buffer policies, with and without faults): the
// simulator's bound before the first packet is tier A's critical path
// in cycles and, priced, tier A's bound bit for bit (on a faulted mesh,
// where tier A prices intact routes, at least as tight); the bounds offered
// to reject never decrease and never exceed the exact cost; an uncut
// pricing returns Cost's value bit for bit; and stopping at the j-th
// offer reports CutAtBound for j = 1 and CutEarly after, with Evals
// counting only pricings that simulated a packet.
func TestPriceBelowMatchesTierAAndCost(t *testing.T) {
	tech := energy.Tech007
	var early int
	for _, grid := range tieredGrids(t) {
		lbSkel, err := newTexecLB(tieredCfg(), grid.g)
		if err != nil {
			t.Fatal(err)
		}
		faultSets := []*topology.FaultSet{nil}
		if fs, err := topology.GenerateFaults(grid.mesh, 0.1, 5); err != nil {
			t.Fatal(err)
		} else if !fs.Empty() {
			faultSets = append(faultSets, fs)
		}
		for _, buffers := range []noc.BufferPolicy{noc.BuffersUnbounded, noc.BuffersBounded} {
			cfg := tieredCfg()
			cfg.Buffers = buffers
			if buffers == noc.BuffersBounded {
				cfg.BufferFlits = 4
			}
			for fi, fs := range faultSets {
				name := fmt.Sprintf("%s/%s/faults=%d", grid.name, buffers, fi)
				var exact *CDCM
				if fs == nil {
					exact, err = NewCDCM(grid.mesh, cfg, tech, grid.g)
				} else {
					exact, err = NewCDCMFaults(grid.mesh, cfg, tech, grid.g, fs)
				}
				if err != nil {
					t.Fatal(err)
				}
				exact.Evals = &obs.Counter{}
				bound, err := newCDCMBound(grid.mesh, cfg, tech, grid.g, lbSkel)
				if err != nil {
					t.Fatal(err)
				}
				sc := exact.sim.NewScratch()
				rng := rand.New(rand.NewSource(17))
				for trial := 0; trial < 12; trial++ {
					mp, err := mapping.Random(rng, grid.g.NumCores(), grid.mesh.NumTiles())
					if err != nil {
						t.Fatal(err)
					}
					cost, err := exact.Cost(mp)
					if errors.Is(err, topology.ErrUnreachable) {
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					tierA, err := bound.ResetBound(mp)
					if err != nil {
						t.Fatal(err)
					}
					lp, err := bound.lpCycles(-1, -1)
					if err != nil {
						t.Fatal(err)
					}
					var fb firstBound
					if _, _, err := exact.sim.RunBelow(mp, sc, &fb); err != nil {
						t.Fatal(err)
					}
					// Tier A prices intact routes; fault detours are hop-wise at
					// least as long, so on a faulted mesh the simulator's own
					// first bound may only be tighter.
					if fb.lb < lp || (fs == nil && fb.lb != lp) {
						t.Fatalf("%s trial %d: simulator's first bound %d cycles, tier A's critical path %d",
							name, trial, fb.lb, lp)
					}

					var lbs []float64
					evals := exact.Evals.Value()
					c, cut, err := exact.PriceBelow(mp, func(lb float64) bool {
						lbs = append(lbs, lb)
						return false
					})
					if err != nil || cut != search.Uncut || math.Float64bits(c) != math.Float64bits(cost) {
						t.Fatalf("%s trial %d: uncut PriceBelow = %.17g (%v, %v), Cost %.17g", name, trial, c, cut, err, cost)
					}
					if lbs[0] < tierA || (fs == nil && math.Float64bits(lbs[0]) != math.Float64bits(tierA)) {
						t.Fatalf("%s trial %d: first bound %.17g, tier A %.17g", name, trial, lbs[0], tierA)
					}
					for j, lb := range lbs {
						if lb > cost || (j > 0 && lb < lbs[j-1]) {
							t.Fatalf("%s trial %d: bounds %v exceed cost %.17g or decrease", name, trial, lbs, cost)
						}
					}
					if got := exact.Evals.Value() - evals; got != 1 {
						t.Fatalf("%s trial %d: uncut pricing counted %d evaluations, want 1", name, trial, got)
					}

					stopAt := 1 + rng.Intn(len(lbs))
					calls := 0
					evals = exact.Evals.Value()
					_, cut, err = exact.PriceBelow(mp, func(float64) bool {
						calls++
						return calls == stopAt
					})
					want, wantEvals := search.CutEarly, int64(1)
					if stopAt == 1 {
						want, wantEvals = search.CutAtBound, 0
					} else {
						early++
					}
					if err != nil || cut != want || exact.Evals.Value()-evals != wantEvals {
						t.Fatalf("%s trial %d: stop at offer %d of %d gave %v (%v), %d evaluations",
							name, trial, stopAt, len(lbs), cut, err, exact.Evals.Value()-evals)
					}
				}
			}
		}
	}
	if early == 0 {
		t.Fatal("no pricing was cut part-way: the CutEarly path is untested")
	}
}

// TestPriceBelowZeroAllocs pins the cut-off pricing path to zero heap
// allocations in steady state, cut part-way or run to completion.
func TestPriceBelowZeroAllocs(t *testing.T) {
	grid := tieredGrids(t)[0]
	exact, err := NewCDCM(grid.mesh, tieredCfg(), energy.Tech007, grid.g)
	if err != nil {
		t.Fatal(err)
	}
	exact.Evals = &obs.Counter{}
	mp := mapping.Identity(grid.g.NumCores())
	calls, stopAt := 0, 0
	reject := func(float64) bool {
		calls++
		return calls == stopAt
	}
	for _, stop := range []int{0, 3} {
		stopAt = stop
		if _, _, err := exact.PriceBelow(mp, reject); err != nil { // warm the scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			calls = 0
			if _, _, err := exact.PriceBelow(mp, reject); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("PriceBelow (stop at offer %d) allocates %.1f objects/run, want 0", stop, allocs)
		}
	}
}

// cutCounter is an exact tier that forwards PriceBelow to a CDCM and
// counts how each pricing ended.
type cutCounter struct {
	*CDCM
	cuts map[search.Cut]int
}

func (c *cutCounter) PriceBelow(mp mapping.Mapping, reject func(lb float64) bool) (float64, search.Cut, error) {
	v, cut, err := c.CDCM.PriceBelow(mp, reject)
	c.cuts[cut]++
	return v, cut, err
}

// TestSACutoffBitIdentical pins the SA cut-off end to end: an Annealer
// over TieredObjective{Exact, Bound} whose exact tier stops simulations
// part-way retraces the bare-CDCM walk bit for bit — Best, costs,
// counters and every restart's accept/reject decisions — on the tier-A
// fixtures under both technologies, and its cut-before-the-first-packet
// pricings are exactly the walk's BoundSkips.
func TestSACutoffBitIdentical(t *testing.T) {
	cfg := tieredCfg()
	var early int
	for _, tech := range []energy.Tech{energy.Tech035, energy.Tech007} {
		for _, grid := range tieredGrids(t) {
			cdcm, err := NewCDCM(grid.mesh, cfg, tech, grid.g)
			if err != nil {
				t.Fatal(err)
			}
			lbSkel, err := newTexecLB(cfg, grid.g)
			if err != nil {
				t.Fatal(err)
			}
			bnd, err := newCDCMBound(grid.mesh, cfg, tech, grid.g, lbSkel)
			if err != nil {
				t.Fatal(err)
			}
			counted := &cutCounter{CDCM: cdcm.Clone(), cuts: map[search.Cut]int{}}
			run := func(obj search.Objective) saTrace {
				tr := saTrace{accepted: map[int]int64{}, rejected: map[int]int64{}}
				res, err := (&search.Annealer{
					Problem: search.Problem{Mesh: grid.mesh, NumCores: grid.g.NumCores(), Obj: obj},
					Seed:    3, TempSteps: 40, MovesPerTemp: 60, Alpha: 0.7, Reheats: 1,
					OnProgress: func(p search.Progress) {
						tr.accepted[p.Restart], tr.rejected[p.Restart] = p.Accepted, p.Rejected
					},
				}).Run()
				if err != nil {
					t.Fatal(err)
				}
				tr.res = res
				return tr
			}
			name := fmt.Sprintf("%s/%s", grid.name, tech.Name)
			tiered := run(&search.TieredObjective{Exact: counted, Bound: bnd})
			checkSATraceEqual(t, name, run(cdcm.Clone()), tiered)
			if int64(counted.cuts[search.CutAtBound]) != tiered.res.BoundSkips {
				t.Fatalf("%s: %d cuts at the bound, %d bound skips", name,
					counted.cuts[search.CutAtBound], tiered.res.BoundSkips)
			}
			early += counted.cuts[search.CutEarly]
		}
	}
	if early == 0 {
		t.Fatal("no SA pricing was cut part-way")
	}
}
