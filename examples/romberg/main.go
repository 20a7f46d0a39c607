// Romberg example: the distributed Romberg integration (binary
// scatter/reduce tree with a per-round extrapolation barrier) mapped onto
// a 2x5 mesh, with exhaustive search certifying the annealer.
//
// Hierarchical tree traffic is the hard case for timing-aware mapping:
// minimising bits×hops already pulls the tree together, so the CWM/CDCM
// gap is smaller than for symmetric workloads like the FFT — running both
// examples shows that contrast (the suite-level numbers live in
// EXPERIMENTS.md).
//
// Run with: go run ./examples/romberg
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/noc"
	"repro/internal/topology"
	"repro/internal/trace"
)

func main() {
	// The romberg-8w instance of the Table-1 suite: a root and 8 workers,
	// 51 packets, 23244 bits.
	g, err := apps.Romberg(8, 51, 23244)
	if err != nil {
		log.Fatal(err)
	}
	mesh, err := topology.NewMesh(2, 5)
	if err != nil {
		log.Fatal(err)
	}
	tech := energy.Tech007
	// One instance serves both searches and the contrast pricing below.
	in, err := core.NewInstance(mesh, noc.Default(), g, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Simulated annealing under the CDCM objective...
	sa, err := in.Explore(core.StrategyCDCM, tech, core.Options{Method: core.MethodSA, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SA best: %.6g pJ after %d evaluations\n",
		sa.Search.BestCost*1e12, sa.Search.Evaluations)
	fmt.Print(trace.MappingGrid(mesh, g.CoreName, sa.Best))
	fmt.Printf("texec %d cycles, contention %d cycles\n\n",
		sa.Metrics.ExecCycles, sa.Metrics.ContentionCycles)

	// ...certified by (truncated) exhaustive search with a symmetry
	// anchor. 9 cores on 10 tiles is 10!/1! placements; the anchor pins
	// the root to the canonical quadrant, and a budget keeps the demo
	// quick while still scanning a large sample.
	es, err := in.Explore(core.StrategyCDCM, tech, core.Options{
		Method:   core.MethodES,
		ESAnchor: true,
		ESLimit:  150000,
	})
	if err != nil {
		log.Fatal(err)
	}
	cert := "certified global optimum"
	if !es.Search.Certified {
		cert = fmt.Sprintf("best of %d enumerated placements", es.Search.Evaluations)
	}
	fmt.Printf("ES: %.6g pJ (%s)\n", es.Search.BestCost*1e12, cert)
	if sa.Search.BestCost <= es.Search.BestCost*1.001 {
		fmt.Println("SA matched exhaustive search — the paper's small-NoC observation.")
	} else {
		fmt.Printf("SA is %.2f %% above the enumerated best.\n",
			(sa.Search.BestCost/es.Search.BestCost-1)*100)
	}

	// For contrast: how bad is a random placement?
	m, err := in.CDCM(tech).Evaluate(mapping.Identity(g.NumCores()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnaive identity placement: %.6g pJ, texec %d cycles (%.1f %% above SA)\n",
		m.Total()*1e12, m.ExecCycles, (m.Total()/sa.Search.BestCost-1)*100)
}
