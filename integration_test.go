package repro_test

// End-to-end integration tests across the whole stack: generator →
// models → search → simulator → pricing → rendering.

import (
	"strings"
	"testing"

	"repro/internal/appgen"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
	"repro/internal/trace"
)

// A generated application goes through the full pipeline; the CDCM winner
// must never lose to the CWM winner on the CDCM objective (the seeded
// restart guarantees it), and all rendered artefacts must be non-trivial.
func TestEndToEndGeneratedApplication(t *testing.T) {
	g, err := appgen.Generate(appgen.Params{
		Name: "e2e", Mode: appgen.ModePhases,
		Cores: 8, Packets: 40, TotalBits: 20000, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := topology.NewMesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := noc.Default()
	cmp, err := core.CompareModels(mesh, cfg, g, core.CompareOptions{
		Options: core.Options{Method: core.MethodSA, Seed: 9, TempSteps: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range []string{"0.35um", "0.07um"} {
		if cmp.ECS[tech] < 0 {
			t.Errorf("CDCM lost at %s: ECS = %g", tech, cmp.ECS[tech])
		}
		if cmp.CDCMMetrics[tech].ExecCycles <= 0 {
			t.Errorf("no metrics at %s", tech)
		}
	}

	cdcm, err := core.NewCDCM(mesh, cfg, energy.Tech007, g)
	if err != nil {
		t.Fatal(err)
	}
	raw, metrics, err := cdcm.Simulate(cmp.CDCMMappings["0.07um"])
	if err != nil {
		t.Fatal(err)
	}
	if metrics.ExecCycles != raw.ExecCycles {
		t.Fatal("metrics and raw result disagree")
	}
	gantt := trace.Gantt(g, cfg, raw, 100)
	if strings.Count(gantt, "\n") < g.NumPackets() {
		t.Fatalf("Gantt too small:\n%s", gantt)
	}
	ann := trace.AnnotateSchedule(mesh, g, cmp.CDCMMappings["0.07um"], raw)
	if !strings.Contains(ann, "router t1") {
		t.Fatalf("annotation too small:\n%s", ann)
	}
}

// The whole comparison protocol is deterministic: same seeds, same
// results across repeated runs.
func TestEndToEndDeterminism(t *testing.T) {
	g := model.PaperExampleCDCG()
	mesh, _ := topology.NewMesh(2, 2)
	opts := core.CompareOptions{Options: core.Options{Method: core.MethodSA, Seed: 4, TempSteps: 15}}
	first, err := core.CompareModels(mesh, noc.Default(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := core.CompareModels(mesh, noc.Default(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if again.ETR != first.ETR || again.ECS["0.07um"] != first.ECS["0.07um"] {
			t.Fatalf("run %d diverged: %+v vs %+v", i, again, first)
		}
	}
}

// The four embedded applications each survive the full pipeline on their
// Table-1 meshes.
func TestEndToEndEmbeddedApps(t *testing.T) {
	suite, err := exp.Table1Suite()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range suite {
		if !w.Embedded {
			continue
		}
		mesh, err := w.Mesh()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Explore(core.StrategyCDCM, mesh, noc.Default(), energy.Tech007, w.G,
			core.Options{Method: core.MethodSA, Seed: 1, TempSteps: 10, MovesPerTemp: 20})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		lb, err := w.G.ComputeLowerBound()
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.ExecCycles < lb {
			t.Fatalf("%s: texec %d below dependence bound %d", w.Name, res.Metrics.ExecCycles, lb)
		}
	}
}
