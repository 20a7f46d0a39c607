// Package wormhole implements the timed, contention-aware wormhole
// simulator at the heart of the CDCM mapping evaluation (paper Section 4).
//
// Every NoC resource — router, inter-tile link, core↔router link — keeps a
// list of closed busy intervals ("cost variable lists" in the paper). A
// packet acquires each resource along its XY route at the earliest instant
// the resource is continuously free, waiting in the router input buffer
// otherwise; that wait is the contention delay the CWM model cannot see.
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
// the common append-at-the-back acquisition is O(1).
type busyList struct {
	iv     []Occupancy
	maxEnd int64
}

// reset empties the list, retaining capacity for reuse across runs.
//
//nocvet:noalloc
func (b *busyList) reset() {
	b.iv = b.iv[:0]
	b.maxEnd = 0
}

// acquire books the earliest interval [t, t+hold] with t >= arrival that
// does not overlap any existing booking, inserts it, and returns t.
// Intervals are closed: a resource busy through cycle e is free from e+1.
//
//nocvet:noalloc
func (b *busyList) acquire(arrival, hold int64, pkt model.PacketID) int64 {
	t, pos := b.earliestFree(arrival, hold)
	b.insert(pos, Occupancy{Packet: pkt, Start: t, End: t + hold})
	return t
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
// interval goes in the list, without booking it. The scan is correct on
// overlapping bookings too: t only grows, and any interval already
// passed has End below the t at which it was examined.
//
//nocvet:noalloc
func (b *busyList) earliestFree(arrival, hold int64) (t int64, pos int) {
	if len(b.iv) == 0 || arrival > b.maxEnd {
		return arrival, len(b.iv) // fast path: strictly after everything booked
	}
	t = arrival
	for i := range b.iv {
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
