package wormhole

import "repro/internal/mapping"

// ScratchBookings counts the busy intervals a scratch holds after a
// run: those on router output ports, and those on every other resource.
func ScratchBookings(sc *Scratch) (ports, others int) {
	for _, l := range sc.ports {
		ports += len(l.iv)
	}
	for _, ls := range [][]busyList{sc.links, sc.coreOut, sc.coreIn} {
		for _, l := range ls {
			others += len(l.iv)
		}
	}
	return ports, others
}

// ScratchLoads returns a copy of the per-port loads sc holds and the
// mapping they are for; ok is false before sc has computed any.
func ScratchLoads(sc *Scratch) (loads []int64, of mapping.Mapping, ok bool) {
	return append([]int64(nil), sc.load...), sc.loadMap.Clone(), sc.loaded
}

// RunRecording simulates mp on a fresh scratch with RecordOccupancy set,
// so the Result carries every resource's busy intervals and is
// independent of later runs.
func RunRecording(sim *Simulator, mp mapping.Mapping) (*Result, error) {
	sc := sim.NewScratch()
	sc.RecordOccupancy = true
	return sim.RunScratch(mp, sc)
}

// Horizon is the certified bound NewSimulatorFaults checks against the
// packed event key: no start or delivery of any run comes later.
func Horizon(sim *Simulator) uint64 { return sim.horizon() }
