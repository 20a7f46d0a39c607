package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// firstCutoff is a wormhole.Cutoff that keeps the bound offered before
// the first packet and lets the run complete.
type firstCutoff struct {
	lb    int64
	calls int
}

func (f *firstCutoff) Stop(_ wormhole.Traffic, texecBound int64) bool {
	if f.calls == 0 {
		f.lb = texecBound
	}
	f.calls++
	return false
}

// refTierA is the test-only reference for CDCM's tier-A bound, written
// from the model's definitions instead of from the simulator's tables:
// every packet's route comes from Mesh.RouteFault (fs nil: Mesh.Route),
// which gives its router count K and its vertical hops V; its
// contention-free duration is compute + K·(tr+tl) + V·(tTSV−tl) +
// flits·tl; the critical path is the longest path of those durations
// through CDCG.DepGraph(); and the bound prices the routes' traffic and
// that path through package energy the way CDCM prices a simulation. It
// returns the bound and the critical path in cycles.
func refTierA(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech, g *model.CDCG,
	fs *topology.FaultSet, mp mapping.Mapping) (float64, int64, error) {
	dg, err := g.DepGraph()
	if err != nil {
		return 0, 0, err
	}
	dur := make([]int64, g.NumPackets())
	var routerBits, linkBits, tsvBits, coreBits int64
	for v, p := range g.Packets {
		r, err := mesh.RouteFault(cfg.Routing, fs, mp[p.Src], mp[p.Dst])
		if err != nil {
			return 0, 0, err
		}
		k := int64(r.K())
		var vert int64
		for i := 1; i < len(r.Tiles); i++ {
			if mesh.Coord(r.Tiles[i]).Z != mesh.Coord(r.Tiles[i-1]).Z {
				vert++
			}
		}
		dur[v] = p.Compute + k*(cfg.RoutingCycles+cfg.LinkCycles) +
			vert*(cfg.TSVCycles()-cfg.LinkCycles) + cfg.Flits(p.Bits)*cfg.LinkCycles
		routerBits += p.Bits * k
		linkBits += p.Bits * (k - 1)
		tsvBits += p.Bits * vert
		coreBits += 2 * p.Bits
	}
	cp, err := dg.LongestPath(func(v int) int64 { return dur[v] })
	if err != nil {
		return 0, 0, err
	}
	dyn := tech.DynamicFromTraffic3D(routerBits, linkBits, tsvBits, coreBits)
	return dyn + tech.StaticEnergy(mesh.NumTiles(), cfg.CyclesToSeconds(cp)), cp, nil
}

// TestPriceBelowMatchesTierAAndCost pins CDCM.PriceBelow against the two
// pricings it stands between, on the tier-A fixtures (2-D mesh, 3-D mesh
// and 3-D torus, both buffer policies, with and without faults): the
// simulator's bound before the first packet is refTierA's critical path
// in cycles and, priced, refTierA's bound bit for bit (on a faulted mesh
// the intact-route reference is at most as tight); the bounds offered
// to reject never decrease and never exceed the exact cost; an uncut
// pricing returns Cost's value bit for bit; and stopping at the j-th
// offer reports CutAtBound for j = 1 and CutEarly after, with Evals
// counting only pricings that simulated a packet.
func TestPriceBelowMatchesTierAAndCost(t *testing.T) {
	tech := energy.Tech007
	var early int
	for _, grid := range tieredGrids(t) {
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
				var err error
				if fs == nil {
					exact, err = NewCDCM(grid.mesh, cfg, tech, grid.g)
				} else {
					exact, err = NewCDCMFaults(grid.mesh, cfg, tech, grid.g, fs)
				}
				if err != nil {
					t.Fatal(err)
				}
				exact.Evals = &obs.Counter{}
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
					tierA, cp, err := refTierA(grid.mesh, cfg, tech, grid.g, fs, mp)
					if err != nil {
						t.Fatal(err)
					}
					var fb firstCutoff
					if _, _, err := exact.sim.RunBelow(mp, sc, &fb); err != nil {
						t.Fatal(err)
					}
					if fb.lb != cp {
						t.Fatalf("%s trial %d: simulator's first bound %d cycles, reference critical path %d",
							name, trial, fb.lb, cp)
					}
					// Fault detours are hop-wise at least as long as the
					// intact routes, so the intact-route reference may only
					// be looser on a faulted mesh.
					intact := tierA
					if fs != nil {
						if intact, _, err = refTierA(grid.mesh, cfg, tech, grid.g, nil, mp); err != nil {
							t.Fatal(err)
						}
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
					if math.Float64bits(lbs[0]) != math.Float64bits(tierA) || intact > lbs[0] {
						t.Fatalf("%s trial %d: first bound %.17g, reference %.17g, intact-route reference %.17g",
							name, trial, lbs[0], tierA, intact)
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
// allocations in steady state: cut part-way or run to completion, and a
// hill/tabu candidate — whose rejection test answers only the first
// bound — skipped at that bound or priced in full.
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
	// firstOnly has the shape of the neighbourhood scan's test: the first
	// bound decides against the threshold, later bounds pass.
	var limit float64
	firstOnly := func(lb float64) bool {
		calls++
		return calls == 1 && lb >= limit
	}
	for _, tc := range []struct {
		name   string
		reject func(float64) bool
		stop   int
		limit  float64
		want   search.Cut
	}{
		{"run to completion", reject, 0, 0, search.Uncut},
		{"cut at offer 3", reject, 3, 0, search.CutEarly},
		{"hill/tabu skip", firstOnly, 0, math.Inf(-1), search.CutAtBound},
		{"hill/tabu priced", firstOnly, 0, math.Inf(1), search.Uncut},
	} {
		stopAt, limit = tc.stop, tc.limit
		calls = 0
		_, cut, err := exact.PriceBelow(mp, tc.reject) // warm the scratch
		if err != nil {
			t.Fatal(err)
		}
		if cut != tc.want {
			t.Fatalf("%s: PriceBelow stopped with %v, want %v", tc.name, cut, tc.want)
		}
		allocs := testing.AllocsPerRun(50, func() {
			calls = 0
			if _, _, err := exact.PriceBelow(mp, tc.reject); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("PriceBelow (%s) allocates %.1f objects/run, want 0", tc.name, allocs)
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
// over a CDCM that stops simulations part-way retraces the uncertified
// walk bit for bit — Best, costs,
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
			tiered := run(counted)
			checkSATraceEqual(t, name, run(uncertified(cdcm.Clone())), tiered)
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
