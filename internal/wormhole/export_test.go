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

// PortLoad brings sc's per-port loads to mp and returns the port-load
// bound, as RunBelow does once the critical path is declined.
func PortLoad(sim *Simulator, sc *Scratch, mp mapping.Mapping) int64 {
	return sim.portLoad(sc, mp)
}

// ScratchLoads returns a copy of the per-port loads sc holds and the
// mapping they are for; ok is false before sc has computed any.
func ScratchLoads(sc *Scratch) (loads []int64, of mapping.Mapping, ok bool) {
	return append([]int64(nil), sc.load...), sc.loadMap.Clone(), sc.loaded
}
