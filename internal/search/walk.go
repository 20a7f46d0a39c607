package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/topology"
)

// startMapping returns a validated private copy of initial, or a fresh
// random placement drawn from rng when initial is nil.
func startMapping(rng *rand.Rand, initial mapping.Mapping, numCores, numTiles int) (mapping.Mapping, error) {
	if initial == nil {
		return mapping.Random(rng, numCores, numTiles)
	}
	if len(initial) != numCores {
		return nil, fmt.Errorf("search: initial mapping has %d cores, want %d", len(initial), numCores)
	}
	if err := initial.Validate(numTiles); err != nil {
		return nil, err
	}
	return initial.Clone(), nil
}

// schedule is an annealing schedule as the engines expose it; zero
// values take the defaults documented on Annealer.
type schedule struct {
	initialTemp, alpha          float64
	moves, steps, stall, reheat int
}

// metropolis is the simulated-annealing kernel of Annealer and the
// ParetoSA walks. It owns the walk's moves — swap proposal, T0
// calibration, cooling, stall exit, reheats, cancellation polls and the
// Metropolis draw — and leaves the meaning of a cost to the engine's
// hooks.
type metropolis struct {
	engine  string
	restart int
	rng     *rand.Rand
	// cur and occ are the walk's mapping and its occupancy view; the
	// kernel applies accepted swaps to both before calling accept.
	cur mapping.Mapping
	occ []model.CoreID
	// res carries the evaluation counters, which the price and accept
	// hooks advance, and the BestCost progress snapshots report.
	res        *Result
	onProgress ProgressFunc

	// price returns the cost of the walk with (ta, tb) swapped and its
	// delta against the current cost, leaving cur and occ untouched, and
	// counts the pricing in res against the tier that priced it. With
	// certify set, a hook that holds certified lower bounds on the move's
	// exact cost may skip the move as soon as certify proves its
	// rejection; skipped is then set and c, d are meaningless.
	price func(ta, tb topology.TileID, certify bool) (c, d float64, skipped bool, err error)
	// accept adopts the swap priced at c (already applied to cur and
	// occ) and reports whether it improved the incumbent.
	accept func(ta, tb topology.TileID, c float64) (improved bool, err error)
	// reheat moves the walk back to its incumbent best.
	reheat func() error

	// temp is the current temperature; u is the move's Metropolis
	// variate, drawn (drawn set) at most once per move — by certify or
	// by the acceptance test.
	temp, u float64
	drawn   bool
}

// propose draws a swap whose first tile is always occupied: a swap of
// two empty tiles is a no-op, and on a sparsely occupied mesh drawing
// tiles directly wastes most draws on empty-empty pairs.
func (w *metropolis) propose() (ta, tb topology.TileID) {
	for {
		ta = w.cur[w.rng.Intn(len(w.cur))]
		tb = topology.TileID(w.rng.Intn(len(w.occ)))
		if ta != tb {
			return ta, tb
		}
	}
}

// run executes the schedule, polling ctx for cancellation. scale is the
// walk's starting cost, the fallback T0 reference when no sampled move
// degrades.
func (w *metropolis) run(ctx context.Context, s schedule, scale float64) error {
	if s.moves < 0 || s.steps < 0 || s.stall < 0 || s.reheat < 0 {
		return fmt.Errorf("search: negative annealing budget (moves %d, steps %d, stall %d, reheats %d)",
			s.moves, s.steps, s.stall, s.reheat)
	}
	numTiles := len(w.occ)
	// A 1-tile mesh admits exactly one mapping, so it is already the
	// optimum — and propose could never draw two distinct tiles.
	if numTiles < 2 {
		return nil
	}
	alpha := s.alpha
	if alpha == 0 {
		alpha = 0.95
	}
	if alpha <= 0 || alpha >= 1 {
		return fmt.Errorf("search: alpha %g outside (0,1)", alpha)
	}
	moves := s.moves
	if moves == 0 {
		moves = 10 * numTiles
	}
	steps := s.steps
	if steps == 0 {
		steps = 100
	}
	stall := s.stall
	if stall == 0 {
		stall = 20
	}

	w.temp = s.initialTemp
	if w.temp <= 0 {
		// Calibration pass: sample some moves and set T0 so that an
		// average degradation is accepted with probability ~0.9.
		var sum float64
		var n int
		for i := 0; i < 40; i++ {
			if err := pollAt(ctx, w.res.Evaluations); err != nil {
				return err
			}
			ta, tb := w.propose()
			_, d, _, err := w.price(ta, tb, false)
			if err != nil {
				return err
			}
			if d > 0 {
				sum += d
				n++
			}
		}
		if n > 0 {
			w.temp = (sum / float64(n)) / -math.Log(0.9)
		} else {
			// Start in a local minimum w.r.t. sampled moves: any positive
			// temperature works; pick one proportional to the cost scale.
			w.temp = math.Max(scale*0.01, 1e-300)
		}
	}

	stalled := 0
	reheatsLeft := s.reheat
	baseTemp := w.temp
	// Telemetry counters: emitted in Progress snapshots, never read by
	// the walk itself. Calibration probes count as neither.
	var accepted, rejected int64
	for step := 0; step < steps; step++ {
		if stalled >= stall {
			if reheatsLeft <= 0 {
				break
			}
			// Reheat: continue from the incumbent best at half the
			// previous starting temperature.
			reheatsLeft--
			baseTemp /= 2
			w.temp = baseTemp
			if err := w.reheat(); err != nil {
				return err
			}
			stalled = 0
		}
		improvedThisStep := false
		for mv := 0; mv < moves; mv++ {
			if err := pollAt(ctx, w.res.Evaluations); err != nil {
				return err
			}
			ta, tb := w.propose()
			w.drawn = false
			c, d, skipped, err := w.price(ta, tb, true)
			if err != nil {
				return err
			}
			if skipped {
				rejected++
				continue
			}
			if d > 0 && !w.drawn {
				w.u = w.rng.Float64()
			}
			if d <= 0 || w.u < math.Exp(-d/w.temp) {
				mapping.SwapTiles(w.cur, w.occ, ta, tb)
				improved, err := w.accept(ta, tb, c)
				if err != nil {
					return err
				}
				accepted++
				if improved {
					improvedThisStep = true
				}
			} else {
				rejected++
			}
		}
		if improvedThisStep {
			stalled = 0
		} else {
			stalled++
		}
		w.temp *= alpha
		if w.onProgress != nil {
			w.onProgress(w.res.progress(w.engine, w.restart, step+1, steps, accepted, rejected, w.res.BestCost))
		}
	}
	return nil
}

// certify is the Metropolis side of certified rejection: given dlb, a
// certified lower bound on the exact delta of the move being priced, it
// reports whether the move's rejection is already certain. A positive
// dlb proves d > 0, so the acceptance test is certain to draw the move's
// variate: certify draws it there, once, and the test reuses it, which
// leaves the RNG stream exactly as an unfiltered walk's. A pricing hook
// calls it at most once per bound it holds before pricing the move, so
// at most three times per move for CDCM.
func (w *metropolis) certify(dlb float64) bool {
	if !(dlb > 0) {
		return false
	}
	if !w.drawn {
		w.u, w.drawn = w.rng.Float64(), true
	}
	return certainReject(dlb, w.temp, w.u)
}

// certainReject reports whether the Metropolis test u < exp(−d/temp) is
// certain to fail for every exact delta d ≥ dlb, where dlb = lb − cost > 0
// comes from a certified lower bound lb ≤ c on the candidate's exact cost
// c. The float argument: d = c − cost ≥ lb − cost = dlb because float
// subtraction is monotone in its first operand, and −d/temp ≤ −dlb/temp
// because division by a positive temp is monotone and negation is exact.
// math.Exp is monotone up to rounding below one ulp (2⁻⁵²); u is 0 or at
// least 2⁻⁵³, so the comparison only matters where exp is a normal float,
// and the 1e-9 relative slack covers any such non-monotonicity many times
// over. Hence exp(−d/temp) ≤ exp(−dlb/temp)·(1+1e-9) < u, and the exact
// walk would reject too. At temp → 0 exp underflows to 0 and every u > 0
// rejects, exactly as the exact test does; u == 0 never skips (0 < 0 is
// false), so a move the exact test could still accept is always priced.
//
//nocvet:noalloc
func certainReject(dlb, temp, u float64) bool {
	return math.Exp(-dlb/temp)*(1+1e-9) < u
}
