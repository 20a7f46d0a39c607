package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// preCutoff is a wormhole.Cutoff that keeps the bounds offered and lets
// the run complete.
type preCutoff struct{ pre []int64 }

func (f *preCutoff) Stop(_ wormhole.Traffic, texecBound int64) bool {
	f.pre = append(f.pre, texecBound)
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
// returns the bound, the critical path in cycles and the routes' dynamic
// energy, which prices any other texec bound the same way.
func refTierA(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech, g *model.CDCG,
	fs *topology.FaultSet, mp mapping.Mapping) (float64, int64, float64, error) {
	dg, err := g.DepGraph()
	if err != nil {
		return 0, 0, 0, err
	}
	dur := make([]int64, g.NumPackets())
	var routerBits, linkBits, tsvBits, coreBits int64
	for v, p := range g.Packets {
		r, err := mesh.RouteFault(cfg.Routing, fs, mp[p.Src], mp[p.Dst])
		if err != nil {
			return 0, 0, 0, err
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
		return 0, 0, 0, err
	}
	dyn := tech.DynamicFromTraffic3D(routerBits, linkBits, tsvBits, coreBits)
	return dyn + tech.StaticEnergy(mesh.NumTiles(), cfg.CyclesToSeconds(cp)), cp, dyn, nil
}

// refPortLoad is the test-only reference for the port-load bound,
// written from the closed-interval rule instead of from the simulator's
// tables: routes come from Mesh.RouteFault; an arbitrated output port
// (every inter-tile port, and the local port under ArbitrateLocal)
// grants its packets disjoint closed intervals [t, t+hold], hold being
// tr + (n−1)·r for the per-flit time r of the link the port feeds (tl at
// the local port), so grants lie at least hold+1 apart and the packet
// granted last must still be delivered, which takes it d more cycles:
// tr plus the link time per router from the port on, then n·tl into the
// core. Each packet adds min(hold+1, d) to each such port on its route;
// the result is the largest per-port sum in cycles.
func refPortLoad(mesh *topology.Mesh, cfg noc.Config, g *model.CDCG,
	fs *topology.FaultSet, mp mapping.Mapping) (int64, error) {
	tr, tl := cfg.RoutingCycles, cfg.LinkCycles
	n := mesh.NumTiles()
	load := make([]int64, n*(n+1)) // router × the tile it feeds, n for the core
	for _, p := range g.Packets {
		r, err := mesh.RouteFault(cfg.Routing, fs, mp[p.Src], mp[p.Dst])
		if err != nil {
			return 0, err
		}
		f := cfg.Flits(p.Bits)
		last := len(r.Tiles) - 1
		for i, tile := range r.Tiles {
			next, rate := n, tl
			if i < last {
				next = int(r.Tiles[i+1])
				if mesh.Coord(tile).Z != mesh.Coord(r.Tiles[i+1]).Z {
					rate = cfg.TSVCycles()
				}
			} else if !cfg.ArbitrateLocal {
				break
			}
			d := tr + f*tl
			for j := i; j < last; j++ {
				d += tr + cfg.LinkCycles
				if mesh.Coord(r.Tiles[j]).Z != mesh.Coord(r.Tiles[j+1]).Z {
					d += cfg.TSVCycles() - cfg.LinkCycles
				}
			}
			load[int(tile)*(n+1)+next] += min(tr+(f-1)*rate+1, d)
		}
	}
	return slices.Max(load), nil
}

// TestPriceBelowMatchesTierAAndCost pins CDCM.PriceBelow against the
// pricings it stands between, on the tier-A fixtures (2-D mesh, 3-D mesh
// and 3-D torus, both buffer policies, with and without faults, with
// ArbitrateLocal off and on): the simulator's bounds are refTierA's
// critical path in cycles and, when it is larger, refPortLoad's port
// load; priced, the bounds PriceBelow offers are refTierA's bound and
// that load priced the same way, bit for bit (on a faulted mesh the
// intact-route tier-A reference is at most as tight); they never exceed
// the exact cost; a pricing that is not skipped returns Cost's value bit
// for bit and counts one evaluation; and stopping at either offer
// reports skipped and counts none.
func TestPriceBelowMatchesTierAAndCost(t *testing.T) {
	tech := energy.Tech007
	var loaded, skipsAtLoad int
	for _, grid := range tieredGrids(t) {
		faultSets := []*topology.FaultSet{nil}
		if fs, err := topology.GenerateFaults(grid.mesh, 0.1, 5); err != nil {
			t.Fatal(err)
		} else if !fs.Empty() {
			faultSets = append(faultSets, fs)
		}
		for _, buffers := range []noc.BufferPolicy{noc.BuffersUnbounded, noc.BuffersBounded} {
			for _, arbLocal := range []bool{false, true} {
				cfg := tieredCfg()
				cfg.Buffers = buffers
				cfg.ArbitrateLocal = arbLocal
				if buffers == noc.BuffersBounded {
					cfg.BufferFlits = 4
				}
				for fi, fs := range faultSets {
					name := fmt.Sprintf("%s/%s/local=%v/faults=%d", grid.name, buffers, arbLocal, fi)
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
					exact.sim.PortLoadBound = true // the grids are below its core count
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
						tierA, cp, dyn, err := refTierA(grid.mesh, cfg, tech, grid.g, fs, mp)
						if err != nil {
							t.Fatal(err)
						}
						load, err := refPortLoad(grid.mesh, cfg, grid.g, fs, mp)
						if err != nil {
							t.Fatal(err)
						}
						wantCycles, wantPre := []int64{cp}, []float64{tierA}
						if load > cp {
							loaded++
							wantCycles = append(wantCycles, load)
							wantPre = append(wantPre, dyn+tech.StaticEnergy(grid.mesh.NumTiles(), cfg.CyclesToSeconds(load)))
						}
						var pc preCutoff
						if _, err := exact.sim.RunBelow(mp, sc, &pc); err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(pc.pre, wantCycles) {
							t.Fatalf("%s trial %d: simulator's bounds %v cycles, reference %v",
								name, trial, pc.pre, wantCycles)
						}
						// Fault detours are hop-wise at least as long as the
						// intact routes, so the intact-route reference may
						// only be looser on a faulted mesh.
						intact := tierA
						if fs != nil {
							if intact, _, _, err = refTierA(grid.mesh, cfg, tech, grid.g, nil, mp); err != nil {
								t.Fatal(err)
							}
						}

						var lbs []float64
						evals := exact.Evals.Value()
						c, skipped, err := exact.PriceBelow(mp, func(lb float64) bool {
							lbs = append(lbs, lb)
							return false
						})
						if err != nil || skipped || math.Float64bits(c) != math.Float64bits(cost) {
							t.Fatalf("%s trial %d: PriceBelow = %.17g (skipped %v, %v), Cost %.17g", name, trial, c, skipped, err, cost)
						}
						if !slices.Equal(lbs, wantPre) || intact > lbs[0] {
							t.Fatalf("%s trial %d: bounds %.17g, reference %.17g, intact-route tier A %.17g",
								name, trial, lbs, wantPre, intact)
						}
						for _, lb := range lbs {
							if lb > cost {
								t.Fatalf("%s trial %d: bounds %v exceed cost %.17g", name, trial, lbs, cost)
							}
						}
						if got := exact.Evals.Value() - evals; got != 1 {
							t.Fatalf("%s trial %d: full pricing counted %d evaluations, want 1", name, trial, got)
						}

						stopAt := 1 + rng.Intn(len(lbs))
						calls := 0
						evals = exact.Evals.Value()
						_, skipped, err = exact.PriceBelow(mp, func(float64) bool {
							calls++
							return calls == stopAt
						})
						if err != nil || !skipped || calls != stopAt || exact.Evals.Value() != evals {
							t.Fatalf("%s trial %d: stop at offer %d of %d gave skipped %v after %d offers (%v), %d evaluations",
								name, trial, stopAt, len(lbs), skipped, calls, err, exact.Evals.Value()-evals)
						}
						if stopAt == 2 {
							skipsAtLoad++
						}
					}
				}
			}
		}
	}
	if loaded == 0 || skipsAtLoad == 0 {
		t.Fatalf("%d port loads above the critical path, %d skips at the port load: a path is untested", loaded, skipsAtLoad)
	}
}

// TestPriceBelowZeroAllocs pins the cut-off pricing path to zero heap
// allocations in steady state: skipped at the critical path, skipped at
// the port-load bound, and priced in full.
func TestPriceBelowZeroAllocs(t *testing.T) {
	grid := tieredGrids(t)[0]
	exact, err := NewCDCM(grid.mesh, tieredCfg(), energy.Tech007, grid.g)
	if err != nil {
		t.Fatal(err)
	}
	exact.Evals = &obs.Counter{}
	exact.sim.PortLoadBound = true
	// A mapping whose port load exceeds its critical path, so PriceBelow
	// offers both bounds.
	var mp mapping.Mapping
	rng := rand.New(rand.NewSource(5))
	for try, offers := 0, 0; offers < 2; try++ {
		if try == 100 {
			t.Fatal("no mapping of 100 has a port load above its critical path")
		}
		if mp, err = mapping.Random(rng, grid.g.NumCores(), grid.mesh.NumTiles()); err != nil {
			t.Fatal(err)
		}
		offers = 0
		if _, _, err := exact.PriceBelow(mp, func(float64) bool {
			offers++
			return false
		}); err != nil {
			t.Fatal(err)
		}
	}
	calls, stopAt := 0, 0
	reject := func(float64) bool {
		calls++
		return calls == stopAt
	}
	// atBound has the shape of the neighbourhood scan's test: every bound
	// decides against the threshold.
	var limit float64
	atBound := func(lb float64) bool { return lb >= limit }
	for _, tc := range []struct {
		name   string
		reject func(float64) bool
		stop   int
		limit  float64
		want   bool
	}{
		{"priced in full", reject, 0, 0, false},
		{"skip at the critical path", reject, 1, 0, true},
		{"skip at the port-load bound", reject, 2, 0, true},
		{"hill/tabu skip", atBound, 0, math.Inf(-1), true},
		{"hill/tabu priced", atBound, 0, math.Inf(1), false},
	} {
		stopAt, limit = tc.stop, tc.limit
		calls = 0
		_, skipped, err := exact.PriceBelow(mp, tc.reject) // warm the scratch
		if err != nil {
			t.Fatal(err)
		}
		if skipped != tc.want {
			t.Fatalf("%s: PriceBelow skipped %v, want %v", tc.name, skipped, tc.want)
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
// counts the pricings it skipped.
type cutCounter struct {
	*CDCM
	skips int64
}

func (c *cutCounter) PriceBelow(mp mapping.Mapping, reject func(lb float64) bool) (float64, bool, error) {
	v, skipped, err := c.CDCM.PriceBelow(mp, reject)
	if skipped {
		c.skips++
	}
	return v, skipped, err
}

// TestSACutoffBitIdentical pins the SA cut-off end to end: an Annealer
// over a CDCM that skips simulations at their bounds retraces the
// uncertified walk bit for bit — Best, costs, counters and every
// restart's accept/reject decisions — on the tier-A fixtures under both
// technologies, and its skipped pricings are exactly the walk's
// BoundSkips.
func TestSACutoffBitIdentical(t *testing.T) {
	cfg := tieredCfg()
	for _, tech := range []energy.Tech{energy.Tech035, energy.Tech007} {
		for _, grid := range tieredGrids(t) {
			cdcm, err := NewCDCM(grid.mesh, cfg, tech, grid.g)
			if err != nil {
				t.Fatal(err)
			}
			counted := &cutCounter{CDCM: cdcm.Clone()}
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
			if counted.skips != tiered.res.BoundSkips {
				t.Fatalf("%s: %d skipped pricings, %d bound skips", name, counted.skips, tiered.res.BoundSkips)
			}
		}
	}
}
