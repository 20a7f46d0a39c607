package exp

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/noc"
	"repro/internal/wormhole"
)

func TestRunAblations(t *testing.T) {
	suite := smallSuite(t, 6)[:1]
	outs, err := RunAblations(suite, nil, core.Options{
		Method: core.MethodSA, Seed: 1, TempSteps: 8, MovesPerTemp: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(DefaultAblations()) {
		t.Fatalf("outcomes = %d, want %d", len(outs), len(DefaultAblations()))
	}
	for _, o := range outs {
		if o.ExecCycles <= 0 || o.TotalPJ <= 0 {
			t.Fatalf("empty metrics: %+v", o)
		}
	}
	out := RenderAblations(outs)
	for _, want := range []string{"mesh/XY (paper)", "torus/XY", "arbitrated-local"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunAblationsCustomVariant(t *testing.T) {
	suite := smallSuite(t, 6)[:1]
	outs, err := RunAblations(suite, []AblationVariant{{Name: "only-one"}},
		core.Options{Method: core.MethodSA, Seed: 1, TempSteps: 5, MovesPerTemp: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Variant != "only-one" {
		t.Fatalf("outs = %+v", outs)
	}
}

func TestRunBuffersSweep(t *testing.T) {
	// tgff-2x4-c: a row whose CWM and CDCM winners run for different
	// times, so pricing one winner in the other's place shows.
	var suite []Workload
	for _, w := range smallSuite(t, 8) {
		if w.Name == "tgff-2x4-c" {
			suite = append(suite, w)
		}
	}
	if len(suite) != 1 {
		t.Fatal("workload tgff-2x4-c not in the suite")
	}
	opts := core.Options{Method: core.MethodSA, Seed: 1, TempSteps: 8, MovesPerTemp: 20}
	outs, err := RunBuffers(suite, noc.Config{}, []int64{1, 8}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	o := outs[0]
	// Two bounded depths plus the unbounded reference.
	if len(o.Depths) != 3 || o.Depths[2] != -1 {
		t.Fatalf("depths = %v", o.Depths)
	}
	for i := range o.Depths {
		if o.CWMExec[i] <= 0 || o.CDCMExec[i] <= 0 {
			t.Fatalf("missing exec values: %+v", o)
		}
	}

	// Reference: a fresh simulator and Run for every priced mapping.
	mesh, err := suite[0].Mesh()
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := core.CompareModels(mesh, noc.Default(), suite[0].G, core.CompareOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	exec := func(c noc.Config, mp mapping.Mapping) int64 {
		sim, err := wormhole.NewSimulator(mesh, c, suite[0].G)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(mp)
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecCycles
	}
	for i, d := range o.Depths {
		c := noc.Default()
		if d >= 0 {
			c.Buffers, c.BufferFlits = noc.BuffersBounded, d
		}
		if want := exec(c, cmp.CWMMapping); o.CWMExec[i] != want {
			t.Errorf("depth %d: CWM texec %d, fresh Run %d", d, o.CWMExec[i], want)
		}
		if want := exec(c, cmp.CDCMMappings[energy.Tech007.Name]); o.CDCMExec[i] != want {
			t.Errorf("depth %d: CDCM texec %d, fresh Run %d", d, o.CDCMExec[i], want)
		}
	}
	out := RenderBuffers(outs)
	for _, want := range []string{"B=1", "B=8", "unbounded", "CWM", "CDCM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
