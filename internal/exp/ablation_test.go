package exp

import (
	"strings"
	"testing"

	"repro/internal/core"
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
