// Package wormhole implements the timed, contention-aware wormhole
// simulator at the heart of the CDCM mapping evaluation (paper Section 4).
//
// Every NoC resource — router, inter-tile link, core↔router link — keeps a
// list of closed busy intervals ("cost variable lists" in the paper). A
// packet acquires each resource along its route (the configured routing
// function, precomputed per tile pair) at the earliest instant the
// resource is continuously free, waiting in the router input buffer
// otherwise; that wait is the contention delay the CWM model cannot see.
//
// Packets are simulated in order of start time, so most requests start
// after every booking of the resource and are appended without a scan.
// The rest scan for the earliest gap from a low-water index: bookings
// that ended before the current packet's start can never conflict with
// this or any later request, so each list passes over them once. The
// order comes from one integer per event, the start time above the
// packet ID (pktKey), so the event heap compares with one instruction;
// NewSimulatorFaults refuses a CDCG whose certified horizon would not
// leave the start times room above the IDs.
//
// The energy's traffic totals follow from the routes alone: Bound
// returns them before the first packet, and a run adds each packet's
// share once, not per hop, into Result.Traffic. So the one run mode,
// RunScratch, is the exact tier of core.CDCM.PriceBelow as well as the
// source of every schedule; a recording scratch is the one diagnostic
// variant, and its occupancies give the per-router and per-link
// breakdown.
package wormhole

import (
	"repro/internal/model"
)

// Occupancy records one packet holding one resource over a closed cycle
// interval [Start, End] — the paper's "number of bits in a given time
// interval" annotation of Figure 3.
type Occupancy struct {
	Packet model.PacketID
	Start  int64
	End    int64
}

// busyList is a list of closed busy intervals for one resource, sorted by
// Start. Arbitrated resources keep non-overlapping intervals;
// unarbitrated resources may overlap. maxEnd caches the largest End so
// the common append-at-the-back acquisition is O(1). On an arbitrated
// list, iv[:lo] are bookings that ended before the floor of an earlier
// acquire; acquire never scans them again (see acquire).
type busyList struct {
	iv     []Occupancy
	maxEnd int64
	lo     int
}

// reset empties the list, retaining capacity for reuse across runs.
//
//nocvet:noalloc
func (b *busyList) reset() {
	b.iv = b.iv[:0]
	b.maxEnd = 0
	b.lo = 0
}

// acquire books the earliest interval [t, t+hold] with t >= arrival that
// does not overlap any existing booking, inserts it, and returns t.
// Intervals are closed: a resource busy through cycle e is free from e+1.
//
// A request that starts after every booking (most of them in a run) is
// appended by push, without a scan. Otherwise the bookings that end
// before floor are passed over for good by advancing lo. The caller
// promises floor <= arrival, and that no later acquire on this list
// passes a floor or an arrival below this floor. Then a booking with
// End < floor also has End below every later arrival, so the scan of
// every later request would skip it (its "End < t" case) with t
// unchanged and never insert before it: starting the scan at lo returns
// the same t and the same position as a full scan. Arbitrated bookings
// do not overlap, so their Ends rise with their Starts and the passed
// bookings are a prefix. Nothing is removed, so recorded occupancies do
// not change. The run passes the popped packet's start, which never
// decreases (see Simulator.run).
//
//nocvet:noalloc
func (b *busyList) acquire(arrival, hold, floor int64, pkt model.PacketID) int64 {
	if b.push(arrival, hold, pkt) {
		return arrival
	}
	for b.lo < len(b.iv) && b.iv[b.lo].End < floor {
		b.lo++
	}
	t, pos := b.earliestFree(arrival, hold)
	b.insert(pos, Occupancy{Packet: pkt, Start: t, End: t + hold})
	return t
}

// push appends [arrival, arrival+hold] and reports true when it starts
// after every booking; otherwise it books nothing. It is acquire's
// common case, small enough to inline where the run loop books ports.
//
//nocvet:noalloc
func (b *busyList) push(arrival, hold int64, pkt model.PacketID) bool {
	if arrival <= b.maxEnd && len(b.iv) > 0 {
		return false
	}
	b.maxEnd = arrival + hold
	b.iv = append(b.iv, Occupancy{Packet: pkt, Start: arrival, End: b.maxEnd})
	return true
}

// record inserts [start, start+hold] keeping the list sorted by Start,
// WITHOUT conflict checking. Used for resources that are timed but not
// arbitrated (the paper's router→core delivery path, whose bookings may
// overlap). Bookings mostly arrive in time-sorted order, so the
// insertion position is searched from the back.
//
//nocvet:noalloc
func (b *busyList) record(start, hold int64, pkt model.PacketID) {
	pos := len(b.iv)
	for pos > 0 {
		prev := &b.iv[pos-1]
		if prev.Start < start || (prev.Start == start && prev.Packet <= pkt) {
			break
		}
		pos--
	}
	b.insert(pos, Occupancy{Packet: pkt, Start: start, End: start + hold})
}

// insert places o at index pos and extends maxEnd.
//
//nocvet:noalloc
func (b *busyList) insert(pos int, o Occupancy) {
	b.iv = append(b.iv, Occupancy{})
	copy(b.iv[pos+1:], b.iv[pos:])
	b.iv[pos] = o
	b.maxEnd = max(b.maxEnd, o.End)
}

// earliestFree returns the earliest instant t >= arrival at which an
// interval of the given hold length fits, and the index at which that
// interval goes in the list, without booking it. It scans from lo (see
// acquire). The scan is correct on overlapping bookings too: t only
// grows, and any interval already passed has End below the t at which it
// was examined.
//
//nocvet:noalloc
func (b *busyList) earliestFree(arrival, hold int64) (t int64, pos int) {
	if len(b.iv) == 0 || arrival > b.maxEnd {
		return arrival, len(b.iv) // fast path: strictly after everything booked
	}
	t = arrival
	for i := b.lo; i < len(b.iv); i++ {
		cur := &b.iv[i]
		if cur.End < t {
			continue // entirely in the past w.r.t. t
		}
		if t+hold < cur.Start {
			return t, i // fits wholly in the gap before cur
		}
		t = cur.End + 1 // conflict: jump past cur
	}
	return t, len(b.iv)
}

// snapshot copies the interval list for external exposure.
func (b *busyList) snapshot() []Occupancy {
	out := make([]Occupancy, len(b.iv))
	copy(out, b.iv)
	return out
}
