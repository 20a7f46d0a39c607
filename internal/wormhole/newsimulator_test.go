package wormhole_test

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/noc"
	"repro/internal/wormhole"
)

// TestNewSimulatorAllocs pins the route-table build on the 99-core
// tgff-12x10 row: routes are walked into one reused buffer and translated
// straight into the flat hop table, so construction allocates a few
// thousand objects (the dependence graph and the fixed tables), not one
// route slice per tile pair. Building every route as its own slice cost
// about 64k allocations here.
func TestNewSimulatorAllocs(t *testing.T) {
	suite, err := exp.Table1Suite()
	if err != nil {
		t.Fatal(err)
	}
	w := suite[findRowNamed(t, suite, "tgff-12x10")]
	mesh, err := w.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := wormhole.NewSimulator(mesh, noc.Default(), w.G); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4000 {
		t.Fatalf("NewSimulator(12x10) allocates %.0f objects, want at most 4000", allocs)
	}
}

// findRowNamed returns the index of the Table-1 row with the given name.
func findRowNamed(t *testing.T, suite []exp.Workload, name string) int {
	t.Helper()
	for i, w := range suite {
		if w.Name == name {
			return i
		}
	}
	t.Fatalf("no Table-1 row named %s", name)
	return -1
}
