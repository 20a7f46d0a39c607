// Package exp regenerates every table and figure of the paper's
// evaluation (Section 5) on the reproduced system: the 18-workload suite
// of Table 1, the CWM-vs-CDCM comparison of Table 2, the worked example of
// Figures 1-5, the ES-vs-SA optimality check, the CWM/CDCM CPU-time
// comparison, and the guided-vs-random baseline of reference [4].
package exp

import (
	"fmt"

	"repro/internal/appgen"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
)

// Workload is one Table-1 instance: an application CDCG bound to a NoC
// size.
type Workload struct {
	// Name identifies the instance.
	Name string
	// MeshW, MeshH are the NoC dimensions ("3 x 2" → 3 wide, 2 high).
	MeshW, MeshH int
	// G is the application.
	G *model.CDCG
	// Embedded marks the eight embedded-application instances; the rest
	// are TGFF-like random benchmarks.
	Embedded bool
	// PaperCores is the core count as published. It equals
	// G.NumCores() everywhere except the 3x4 instance published with 14
	// cores — more cores than tiles, impossible under the paper's own
	// one-core-per-tile formulation — which we clamp to 12 (see
	// DESIGN.md, "Erratum handled").
	PaperCores int
}

// NoCSize formats the mesh dimensions like the paper ("3x2").
func (w Workload) NoCSize() string { return fmt.Sprintf("%dx%d", w.MeshW, w.MeshH) }

// Mesh instantiates the workload's mesh.
func (w Workload) Mesh() (*topology.Mesh, error) { return topology.NewMesh(w.MeshW, w.MeshH) }

// Instance builds the workload's core.Instance on its mesh under cfg.
func (w Workload) Instance(cfg noc.Config) (*core.Instance, error) {
	mesh, err := w.Mesh()
	if err != nil {
		return nil, err
	}
	return core.NewInstance(mesh, cfg, w.G, nil)
}

// Table1Suite regenerates the 18 workloads of Table 1 with the exact
// published aggregate characteristics (cores, packets, total bits). Eight
// instances are the embedded applications (Romberg ×2, FFT-8 ×2, object
// recognition ×2, image encoder ×2); the paper does not say which row is
// which, so the assignment below is ours (EXPERIMENTS.md documents it).
// The remaining ten come from the TGFF-like generator under fixed seeds.
func Table1Suite() ([]Workload, error) {
	var suite []Workload
	add := func(w Workload, err error) error {
		if err != nil {
			return err
		}
		suite = append(suite, w)
		return nil
	}
	embedded := func(name string, mw, mh int, g *model.CDCG, err error) error {
		if err != nil {
			return fmt.Errorf("exp: building %s: %w", name, err)
		}
		return add(Workload{Name: name, MeshW: mw, MeshH: mh, G: g,
			Embedded: true, PaperCores: g.NumCores()}, nil)
	}
	random := func(name string, mw, mh, cores, packets int, bits int64, seed int64, hotspot float64) error {
		// Phase-synchronised exchanges with equal transfer classes: the
		// symmetric, simultaneous traffic of BSP-style parallel kernels
		// creates large plateaus of dynamic-energy-equal mappings whose
		// timing differs widely — the regime the paper's generator
		// evidently targeted (its reported ETR holds across all sizes).
		// Computation scales with the per-packet payload (a fixed
		// communication-to-computation ratio, as in TGFF's period/size
		// attributes): transmission and computation stay in the same
		// order of magnitude at every workload scale, like the paper's
		// worked example (computes 6-20 cycles vs packets 15-40 flits).
		perPacket := bits / int64(packets)
		cmin := perPacket / 4
		if cmin < 1 {
			cmin = 1
		}
		cmax := perPacket
		if cmax <= cmin {
			cmax = cmin + 1
		}
		g, err := appgen.Generate(appgen.Params{
			Name: name, Cores: cores, Packets: packets, TotalBits: bits,
			Seed: seed, HotspotBias: hotspot,
			Mode:       appgen.ModePhases,
			ComputeMin: cmin, ComputeMax: cmax,
		})
		if err != nil {
			return fmt.Errorf("exp: generating %s: %w", name, err)
		}
		return add(Workload{Name: name, MeshW: mw, MeshH: mh, G: g, PaperCores: cores}, nil)
	}

	// 3x2: (5,43,78817) (6,17,174) (6,43,49003)
	{
		g, err := apps.Romberg(4, 43, 78817)
		if err := embedded("romberg-4w", 3, 2, g, err); err != nil {
			return nil, err
		}
	}
	if err := random("tgff-3x2-a", 3, 2, 6, 17, 174, 101, 0); err != nil {
		return nil, err
	}
	{
		g, err := apps.ObjRecognition(6, 43, 49003)
		if err := embedded("objrec-stream", 3, 2, g, err); err != nil {
			return nil, err
		}
	}

	// 2x4: (5,16,1600) (7,33,23235) (8,18,5930)
	if err := random("tgff-2x4-a", 2, 4, 5, 16, 1600, 102, 0); err != nil {
		return nil, err
	}
	if err := random("tgff-2x4-b", 2, 4, 7, 33, 23235, 103, 0.25); err != nil {
		return nil, err
	}
	if err := random("tgff-2x4-c", 2, 4, 8, 18, 5930, 104, 0); err != nil {
		return nil, err
	}

	// 3x3: (7,16,1600) (9,18,1860) (9,32,43120)
	if err := random("tgff-3x3-a", 3, 3, 7, 16, 1600, 105, 0); err != nil {
		return nil, err
	}
	if err := random("tgff-3x3-b", 3, 3, 9, 18, 1860, 106, 0.2); err != nil {
		return nil, err
	}
	{
		g, err := apps.FFT8(true, 32, 43120)
		if err := embedded("fft8-gather", 3, 3, g, err); err != nil {
			return nil, err
		}
	}

	// 2x5: (8,24,2215) (9,51,23244) (10,22,322221)
	{
		g, err := apps.FFT8(false, 24, 2215)
		if err := embedded("fft8", 2, 5, g, err); err != nil {
			return nil, err
		}
	}
	{
		g, err := apps.Romberg(8, 51, 23244)
		if err := embedded("romberg-8w", 2, 5, g, err); err != nil {
			return nil, err
		}
	}
	{
		g, err := apps.ObjRecognition(10, 22, 322221)
		if err := embedded("objrec-wide", 2, 5, g, err); err != nil {
			return nil, err
		}
	}

	// 3x4: (10,15,3100) (12,25,2578920) (14→12,88,115778)
	if err := random("tgff-3x4-a", 3, 4, 10, 15, 3100, 107, 0); err != nil {
		return nil, err
	}
	{
		g, err := apps.ImageEncoder(12, 25, 2578920)
		if err := embedded("imgenc-hd", 3, 4, g, err); err != nil {
			return nil, err
		}
	}
	{
		// Published as 14 cores on 12 tiles; clamped to 12 (erratum).
		g, err := apps.ImageEncoder(12, 88, 115778)
		if err != nil {
			return nil, fmt.Errorf("exp: building imgenc-parallel: %w", err)
		}
		if err := add(Workload{Name: "imgenc-parallel", MeshW: 3, MeshH: 4, G: g,
			Embedded: true, PaperCores: 14}, nil); err != nil {
			return nil, err
		}
	}

	// Large random benchmarks: 8x8 (62,344,9799200), 10x10
	// (93,415,562565990), 12x10 (99,446,680006120).
	if err := random("tgff-8x8", 8, 8, 62, 344, 9799200, 108, 0.1); err != nil {
		return nil, err
	}
	if err := random("tgff-10x10", 10, 10, 93, 415, 562565990, 109, 0.1); err != nil {
		return nil, err
	}
	if err := random("tgff-12x10", 12, 10, 99, 446, 680006120, 110, 0.1); err != nil {
		return nil, err
	}

	return suite, nil
}

// SizeOrder lists the NoC sizes in the paper's Table-2 row order.
var SizeOrder = []string{"3x2", "2x4", "3x3", "2x5", "3x4", "8x8", "10x10", "12x10"}

// BySize groups a suite by NoC size, preserving SizeOrder.
func BySize(suite []Workload) map[string][]Workload {
	m := make(map[string][]Workload)
	for _, w := range suite {
		m[w.NoCSize()] = append(m[w.NoCSize()], w)
	}
	return m
}
