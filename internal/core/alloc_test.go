package core

import (
	"runtime"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/topology"
)

// TestCWMSwapDeltaCommitZeroAlloc pins the hot-path contract the
// hotpath analyzer enforces statically: pricing and committing swaps
// allocates nothing, from the first call after Reset on. The route
// tables are filled in NewCWM, so there is no warm-up to wait out.
func TestCWMSwapDeltaCommitZeroAlloc(t *testing.T) {
	cwm, occ := coldSweepCWM(t)
	if allocs := swapSweepMallocs(t, cwm, occ); allocs != 0 {
		t.Fatalf("SwapDelta+Commit allocates %d objects over a cold sweep, want 0", allocs)
	}
}

// coldSweepCWM returns a CWM on an 8x8 mesh bound by Reset to a mapping
// that packs its 10 cores into the 3x4 corner block, with the mapping's
// occupancy view. The baseline's routes are short, so a sweep of swaps
// across the mesh prices many tile pairs, and route lengths, that Reset
// never touched.
func coldSweepCWM(t *testing.T) (*CWM, []model.CoreID) {
	t.Helper()
	mesh, g := deltaInstance(t, 8, 8, 10)
	cwm := newTestCWM(t, mesh, g)
	mp := make(mapping.Mapping, g.NumCores())
	for i := range mp {
		mp[i] = mesh.Tile(i%3, i/3)
	}
	if _, err := cwm.Reset(mp); err != nil {
		t.Fatal(err)
	}
	return cwm, mp.Occupants(mesh.NumTiles())
}

// swapSweepMallocs prices and commits 64 swaps over tile pairs spread
// across the mesh and returns the heap allocations of the whole sweep.
// Unlike testing.AllocsPerRun it runs no warm-up call and does not
// average, so a single allocation on a first-touched tile pair shows.
func swapSweepMallocs(t *testing.T, cwm *CWM, occ []model.CoreID) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n := topology.TileID(len(occ))
	var before, after runtime.MemStats
	var a, b topology.TileID = 0, n - 1
	var err error
	runtime.ReadMemStats(&before)
	for i := 0; i < 64; i++ {
		if _, err = cwm.SwapDelta(occ, a, b); err != nil {
			break
		}
		cwm.Commit(a, b)
		occ[a], occ[b] = occ[b], occ[a]
		a = (a + 1) % n
		b = (b + 3) % n
		if a == b {
			b = (b + 1) % n
		}
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}
