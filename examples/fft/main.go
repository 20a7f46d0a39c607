// FFT example: map the 8-point FFT (plus a result collector) onto a 3x3
// mesh and compare the CWM and CDCM strategies.
//
// The FFT's butterfly exchanges are synchronised waves of equal-sized
// packets — the workload class where volume-only mapping (CWM) is blind:
// many placements tie on dynamic energy while differing hugely in
// contention. The CDCM strategy sees the waves and finds a mapping that
// runs the butterflies with far less blocking.
//
// Run with: go run ./examples/fft
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/topology"
	"repro/internal/trace"
)

func main() {
	// The fft8-gather instance of the Table-1 suite: 9 cores, 32 packets,
	// 43120 bits in total.
	g, err := apps.FFT8(true, 32, 43120)
	if err != nil {
		log.Fatal(err)
	}
	mesh, err := topology.NewMesh(3, 3)
	if err != nil {
		log.Fatal(err)
	}
	cfg := noc.Default()

	cmp, err := core.CompareModels(mesh, cfg, g, core.CompareOptions{
		Options: core.Options{Method: core.MethodSA, Seed: 42},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("application: %s — %d cores, %d packets, %d bits\n\n",
		g.Name, g.NumCores(), g.NumPackets(), g.TotalBits())

	fmt.Println("CWM winner (volume only):")
	fmt.Print(trace.MappingGrid(mesh, g.CoreName, cmp.CWMMapping))
	w := cmp.CWMMetrics["0.07um"]
	fmt.Printf("  texec %d cycles, contention %d cycles, ENoC(0.07um) %.4g pJ\n\n",
		w.ExecCycles, w.ContentionCycles, w.Total()*1e12)

	fmt.Println("CDCM winner (dependence + computation aware, 0.07um):")
	fmt.Print(trace.MappingGrid(mesh, g.CoreName, cmp.CDCMMappings["0.07um"]))
	d := cmp.CDCMMetrics["0.07um"]
	fmt.Printf("  texec %d cycles, contention %d cycles, ENoC(0.07um) %.4g pJ\n\n",
		d.ExecCycles, d.ContentionCycles, d.Total()*1e12)

	fmt.Printf("execution-time reduction (ETR): %.1f %%\n", cmp.ETR*100)
	fmt.Printf("energy savings: %.2f %% at 0.35um, %.2f %% at 0.07um\n",
		cmp.ECS["0.35um"]*100, cmp.ECS["0.07um"]*100)

	// Show where the CWM mapping loses its time: the timing diagram of
	// the butterfly waves under the volume-only placement.
	cdcm, err := core.NewCDCM(mesh, cfg, energy.Tech007, g)
	if err != nil {
		log.Fatal(err)
	}
	raw, _, err := cdcm.Simulate(cmp.CWMMapping)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nCWM mapping timing (note the contention marks 'x'):")
	fmt.Print(trace.Gantt(g, cfg, raw, 100))
}
