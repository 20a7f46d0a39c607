package wormhole

import (
	"errors"

	"repro/internal/mapping"
)

// htJob is one packet of HeadTail's one-machine relaxation: its head r
// (earliest grant), its length c and its tail q.
type htJob struct{ r, c, q int64 }

// errHeadTailOrder reports a HeadTail call on a simulator without
// PortLoadBound, or one that does not follow Bound and PortLoad on the
// same mapping and scratch.
var errHeadTailOrder = errors.New("wormhole: HeadTail needs PortLoadBound and must follow Bound and PortLoad on the same mapping and scratch")

// HeadTail returns the heads-and-tails bound of mp, a certified lower
// bound on its texec at least as large as the port-load bound (see
// NewSimulatorFaults): on the port with the largest PortLoad sum, ties
// to the lower port index, the largest completion time plus tail of the
// preemptive Jackson schedule of the packets crossing it. It is part of
// the port-load tier: it needs PortLoadBound, and it reads what Bound
// (the per-packet paths) and PortLoad (the per-port sums, and the
// members of the port it last bounded while that stays the peak) leave
// on sc, so it must follow both on mp and sc; otherwise it returns an
// error.
//
//nocvet:noalloc
func (s *Simulator) HeadTail(mp mapping.Mapping, sc *Scratch) (int64, error) {
	if !s.PortLoadBound || sc == nil || sc.sim != s || !sc.loaded ||
		!sameMapping(mp, sc.loadMap) || !sameMapping(mp, sc.boundMap) {
		return 0, errHeadTailOrder
	}
	// Heads: every packet's uncontended earliest start, one forward pass
	// on sc.ready (run resets it). A packet's uncontended duration is its
	// path less its compute time and the longest path after it.
	est := sc.ready
	clear(est)
	for _, p := range s.topo {
		succ := s.dg.Succ(int(p))
		var rest int64
		for _, q := range succ {
			rest = max(rest, sc.path[q])
		}
		pc := &s.pkts[p]
		sc.dur[p] = sc.path[p] - pc.compute - rest
		est[p] += pc.compute
		fin := est[p] + sc.dur[p]
		for _, q := range succ {
			est[q] = max(est[q], fin)
		}
	}

	if sc.hot != sc.peakPort {
		s.gatherHot(sc, mp)
	}
	tr, tl, tlv := s.Cfg.RoutingCycles, s.Cfg.LinkCycles, s.Cfg.TSVCycles()
	sc.jobs = sc.jobs[:0]
	for _, h := range sc.hotHops {
		pc := &s.pkts[h.p]
		// off is the header's uncontended arrival at the port after the
		// packet's start: the core link, then tr and a link per router
		// before it. Only stacked grids have vertical hops, whose links
		// and ports run at the TSV rate.
		off, hold := tl+int64(h.j)*(tr+tl), pc.portHold
		if s.stacked {
			ri := int(mp[pc.src])*s.numTiles + int(mp[pc.dst])
			route := s.routes[s.routeOff[ri]:s.routeOff[ri+1]]
			for _, hp := range route[:h.j] {
				if hp.link < 0 {
					off += tlv - tl
				}
			}
			if hp := route[h.j]; hp.link < 0 && hp.link != localHop {
				hold = pc.vPortHold
			}
		}
		c := min(hold+1, sc.dur[h.p]-off)
		sc.jobs = append(sc.jobs, htJob{r: est[h.p] + off, c: c, q: sc.path[h.p] - pc.compute - off - c})
	}
	var bound int64
	bound, sc.jq = jackson(sc.jobs, sc.jq)
	return bound, nil
}

// gatherHot makes the peak port hot: it collects into hotHops the hop of
// every packet whose route under mp requests it, where it is arbitrated
// (as in addLoad). PortLoad keeps the list from then on, as long as the
// peak stays there.
//
//nocvet:noalloc
func (s *Simulator) gatherHot(sc *Scratch, mp mapping.Mapping) {
	sc.hot = sc.peakPort
	sc.hotHops = sc.hotHops[:0]
	for p := range s.pkts {
		pc := &s.pkts[p]
		ri := int(mp[pc.src])*s.numTiles + int(mp[pc.dst])
		route := s.routes[s.routeOff[ri]:s.routeOff[ri+1]]
		for j, hp := range route {
			if hp.port == sc.hot && (hp.link != localHop || s.Cfg.ArbitrateLocal) {
				sc.hotHops = append(sc.hotHops, pktHop{p: int32(p), j: int32(j)})
				break
			}
		}
	}
}

// pktHop is hop j of packet p's route.
type pktHop struct{ p, j int32 }

// moveHot adds hop j of packet p to hotHops (sign > 0) or removes the
// packet's hop, which it holds at most once: a route never requests one
// port twice.
//
//nocvet:noalloc
func (sc *Scratch) moveHot(p, j int, sign int64) {
	if sign > 0 {
		sc.hotHops = append(sc.hotHops, pktHop{p: int32(p), j: int32(j)})
		return
	}
	for i, h := range sc.hotHops {
		if h.p == int32(p) {
			last := len(sc.hotHops) - 1
			sc.hotHops[i] = sc.hotHops[last]
			sc.hotHops = sc.hotHops[:last]
			return
		}
	}
}

// sameMapping reports whether a and b place every core alike.
//
//nocvet:noalloc
func sameMapping(a, b mapping.Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// jackson returns the largest completion time plus tail, C+q, of the
// preemptive Jackson schedule of jobs: from each release on, the
// released job with the largest tail runs until it completes or the next
// job is released. It is optimal among preemptive schedules with heads
// and tails (Carlier 1982), so it is at most the C+q of any schedule
// that runs each job in one piece. It sorts jobs by head and spends
// their lengths; q is the scratch heap of job indices, returned grown.
//
//nocvet:noalloc
func jackson(jobs []htJob, q []int32) (int64, []int32) {
	// Insertion sort: a port carries tens of packets.
	for i := 1; i < len(jobs); i++ {
		x, j := jobs[i], i
		for ; j > 0 && x.r < jobs[j-1].r; j-- {
			jobs[j] = jobs[j-1]
		}
		jobs[j] = x
	}
	q = q[:0]
	var t, best int64
	next := 0
	for next < len(jobs) || len(q) > 0 {
		if len(q) == 0 {
			t = max(t, jobs[next].r)
		}
		for next < len(jobs) && jobs[next].r <= t {
			q = tailPush(q, jobs, int32(next))
			next++
		}
		j := &jobs[q[0]]
		end := t + j.c
		if next < len(jobs) && jobs[next].r < end {
			j.c -= jobs[next].r - t
			t = jobs[next].r
			continue
		}
		t = end
		best = max(best, t+j.q)
		q = tailPop(q, jobs)
	}
	return best, q
}

// tailPush adds job i to the max-heap q of job indices keyed by tail.
//
//nocvet:noalloc
func tailPush(q []int32, jobs []htJob, i int32) []int32 {
	q = append(q, i)
	for c := len(q) - 1; c > 0; {
		p := (c - 1) / 2
		if jobs[q[p]].q >= jobs[q[c]].q {
			break
		}
		q[p], q[c] = q[c], q[p]
		c = p
	}
	return q
}

// tailPop removes the root of the max-heap q.
//
//nocvet:noalloc
func tailPop(q []int32, jobs []htJob) []int32 {
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		m := 2*i + 1
		if m >= last {
			break
		}
		if r := m + 1; r < last && jobs[q[r]].q > jobs[q[m]].q {
			m = r
		}
		if jobs[q[m]].q <= jobs[q[i]].q {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return q
}
