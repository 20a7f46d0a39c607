package wormhole

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
