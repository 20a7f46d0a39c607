package wormhole

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
)

func TestBusyListAcquireSequential(t *testing.T) {
	var b busyList
	if got := b.acquire(10, 5, 0); got != 10 {
		t.Fatalf("first acquire = %d", got)
	}
	// [10,15] booked; arrival 12 conflicts -> 16.
	if got := b.acquire(12, 3, 1); got != 16 {
		t.Fatalf("conflicting acquire = %d, want 16", got)
	}
	// Gap fit: [0,8] is free for a hold of 8? [0,8] vs [10,15]: fits at 0... 0+8=8 < 10 OK.
	if got := b.acquire(0, 8, 2); got != 0 {
		t.Fatalf("gap acquire = %d, want 0", got)
	}
	// Now [0,8],[10,15],[16,19]: arrival 0 hold 1 must go after 19 (no gap:
	// 9..9 is a 1-wide gap but hold=1 needs [9,10] which hits [10,15]).
	if got := b.acquire(0, 1, 3); got != 20 {
		t.Fatalf("tight acquire = %d, want 20", got)
	}
}

func TestBusyListGapFitExact(t *testing.T) {
	var b busyList
	b.acquire(0, 4, 0)  // [0,4]
	b.acquire(10, 4, 1) // [10,14]
	// Hold 4 needs [5,9]: exactly the gap.
	if got := b.acquire(0, 4, 2); got != 5 {
		t.Fatalf("exact gap = %d, want 5", got)
	}
}

func TestBusyListNoOverlapInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b busyList
		for i := 0; i < 200; i++ {
			arrival := int64(rng.Intn(500))
			hold := int64(rng.Intn(40))
			got := b.acquire(arrival, hold, model.PacketID(i))
			if got < arrival {
				return false
			}
		}
		// Sorted and pairwise disjoint.
		for i := 1; i < len(b.iv); i++ {
			if b.iv[i-1].End >= b.iv[i].Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Differential test: the maxEnd fast path must agree with a reference
// implementation without it, including under overlapping records.
func TestQuickEarliestFreeFastPathEquivalence(t *testing.T) {
	ref := func(iv []Occupancy, arrival, hold int64) int64 {
		t := arrival
		for i := range iv {
			cur := &iv[i]
			if cur.End < t {
				continue
			}
			if t+hold < cur.Start {
				break
			}
			t = cur.End + 1
		}
		return t
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b busyList
		for i := 0; i < 60; i++ {
			start := int64(rng.Intn(300))
			hold := int64(rng.Intn(50))
			if rng.Intn(2) == 0 {
				b.record(start, hold, model.PacketID(i)) // may overlap
			} else {
				b.acquire(start, hold, model.PacketID(i))
			}
			arrival := int64(rng.Intn(500))
			qh := int64(rng.Intn(60))
			if got, _ := b.earliestFree(arrival, qh); got != ref(b.iv, arrival, qh) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBusyListRecordAllowsOverlap(t *testing.T) {
	var b busyList
	b.record(10, 20, 1)
	b.record(5, 20, 0)
	b.record(10, 2, 2)
	iv := b.snapshot()
	if len(iv) != 3 || iv[0].Packet != 0 || iv[1].Packet != 1 || iv[2].Packet != 2 {
		t.Fatalf("record order = %v", iv)
	}
}

func randomValidCDCG(rng *rand.Rand, nc, np int) *model.CDCG {
	g := &model.CDCG{Cores: model.MakeCores(nc)}
	for i := 0; i < np; i++ {
		s := model.CoreID(rng.Intn(nc))
		d := model.CoreID(rng.Intn(nc))
		for d == s {
			d = model.CoreID(rng.Intn(nc))
		}
		g.Packets = append(g.Packets, model.Packet{
			ID: model.PacketID(i), Src: s, Dst: d,
			Compute: int64(rng.Intn(30)),
			Bits:    1 + int64(rng.Intn(500)),
		})
	}
	for i := 0; i < np; i++ {
		for j := i + 1; j < np; j++ {
			if rng.Float64() < 0.15 {
				g.Deps = append(g.Deps, model.Dep{From: model.PacketID(i), To: model.PacketID(j)})
			}
		}
	}
	return g
}

func TestSimulatorRejectsBadInputs(t *testing.T) {
	mesh, _ := topology.NewMesh(2, 2)
	g := model.PaperExampleCDCG()

	if _, err := NewSimulator(nil, noc.Default(), g); err == nil {
		t.Fatal("nil mesh accepted")
	}
	bad := noc.Default()
	bad.FlitBits = 0
	if _, err := NewSimulator(mesh, bad, g); err == nil {
		t.Fatal("invalid config accepted")
	}
	badG := model.PaperExampleCDCG()
	badG.Packets[0].Bits = -3
	if _, err := NewSimulator(mesh, noc.Default(), badG); err == nil {
		t.Fatal("invalid CDCG accepted")
	}
	tiny, _ := topology.NewMesh(1, 2)
	if _, err := NewSimulator(tiny, noc.Default(), g); err == nil {
		t.Fatal("oversubscribed mesh accepted")
	}

	sim, err := NewSimulator(mesh, noc.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(mapping.Mapping{0, 1}); err == nil {
		t.Fatal("short mapping accepted")
	}
	if _, err := sim.Run(mapping.Mapping{0, 0, 1, 2}); err == nil {
		t.Fatal("non-injective mapping accepted")
	}
	var zero Simulator
	if _, err := zero.Run(mapping.Mapping{0}); err == nil {
		t.Fatal("zero-value simulator accepted")
	}
}

func TestSimulatorDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mesh, _ := topology.NewMesh(3, 3)
	g := randomValidCDCG(rng, 6, 40)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(mesh, noc.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	mp, _ := mapping.Random(rng, 6, 9)
	first, err := sim.Run(mp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := sim.Run(mp)
		if err != nil {
			t.Fatal(err)
		}
		if again.ExecCycles != first.ExecCycles || again.TotalContention != first.TotalContention {
			t.Fatalf("run %d differs: %d/%d vs %d/%d", i,
				again.ExecCycles, again.TotalContention, first.ExecCycles, first.TotalContention)
		}
	}
}

// Property: simulated packet delay is never below equation (8), texec is
// never below the dependence lower bound, and traffic aggregates conserve
// volume exactly.
func TestQuickSimulatorInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 2+rng.Intn(3), 2+rng.Intn(3)
		mesh, err := topology.NewMesh(w, h)
		if err != nil {
			return false
		}
		nc := 2 + rng.Intn(mesh.NumTiles()-1)
		g := randomValidCDCG(rng, nc, 1+rng.Intn(30))
		if g.Validate() != nil {
			return false
		}
		cfg := noc.Default()
		sim, err := NewSimulator(mesh, cfg, g)
		if err != nil {
			return false
		}
		mp, err := mapping.Random(rng, nc, mesh.NumTiles())
		if err != nil {
			return false
		}
		res, err := sim.Run(mp)
		if err != nil {
			return false
		}
		var totalBits, routeBits int64
		for _, p := range g.Packets {
			totalBits += p.Bits
		}
		for i, ps := range res.Packets {
			pkt := g.Packets[i]
			minDelay := cfg.UncontendedDelay(ps.K, ps.Flits)
			if ps.Delivered-ps.Start < minDelay {
				return false // faster than physics
			}
			if ps.Delivered-ps.Start != minDelay+ps.Contention {
				return false // delay decomposition must be exact
			}
			if ps.Contention < 0 || ps.Start < ps.Ready {
				return false
			}
			// K matches the XY route of the mapped tiles.
			r, _ := mesh.Route(cfg.Routing, mp[pkt.Src], mp[pkt.Dst])
			if ps.K != r.K() {
				return false
			}
			routeBits += pkt.Bits * int64(r.K())
		}
		var rb, lb, hopBits int64
		for _, b := range res.RouterBits {
			rb += b
		}
		for _, b := range res.LinkBits {
			lb += b
		}
		for i, ps := range res.Packets {
			hopBits += g.Packets[i].Bits * int64(ps.K-1)
		}
		if rb != routeBits || lb != hopBits || res.CoreBits != 2*totalBits {
			return false
		}
		// texec >= dependence-chain computation lower bound.
		lbound, err := g.ComputeLowerBound()
		if err != nil {
			return false
		}
		return res.ExecCycles >= lbound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: exclusive resources (ports, links, core-out) never overlap,
// and all recorded intervals stay within [0, texec].
func TestQuickNoOverlapOnExclusiveResources(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mesh, _ := topology.NewMesh(3, 3)
		nc := 2 + rng.Intn(7)
		g := randomValidCDCG(rng, nc, 1+rng.Intn(40))
		sim, err := NewSimulator(mesh, noc.Default(), g)
		if err != nil {
			return false
		}
		mp, _ := mapping.Random(rng, nc, 9)
		res, err := RunRecording(sim, mp)
		if err != nil {
			return false
		}
		disjoint := func(iv []Occupancy) bool {
			for i := 1; i < len(iv); i++ {
				if iv[i-1].End >= iv[i].Start {
					return false
				}
			}
			for _, o := range iv {
				if o.Start < 0 || o.End > res.ExecCycles {
					return false
				}
			}
			return true
		}
		for i := 0; i < mesh.NumTiles()*NumPorts; i++ {
			// The local port is unarbitrated; skip it.
			if i%NumPorts == LocalPort {
				continue
			}
			if !disjoint(res.Occupancies(KindRouterPort, i)) {
				return false
			}
		}
		for i := 0; i < mesh.NumLinks(); i++ {
			if !disjoint(res.Occupancies(KindLink, i)) {
				return false
			}
		}
		// Core links are unarbitrated by default (paper CRG semantics):
		// their occupancies may overlap but must stay within the run.
		for i := 0; i < mesh.NumTiles(); i++ {
			for _, o := range res.Occupancies(KindCoreOut, i) {
				if o.Start < 0 || o.End > res.ExecCycles {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// With ArbitrateLocal the delivery path becomes exclusive too, so coreIn
// lists must be disjoint. Note that total execution time is NOT guaranteed
// to grow: adding a resource constraint can reorder the greedy schedule and
// occasionally finish earlier (a classic Graham scheduling anomaly), so we
// deliberately do not assert monotonicity.
func TestArbitrateLocalAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mesh, _ := topology.NewMesh(3, 3)
	for trial := 0; trial < 30; trial++ {
		nc := 3 + rng.Intn(6)
		g := randomValidCDCG(rng, nc, 25)
		cfg := noc.Default()
		simA, err := NewSimulator(mesh, cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ArbitrateLocal = true
		simB, err := NewSimulator(mesh, cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		mp, _ := mapping.Random(rng, nc, 9)
		if _, err := simA.Run(mp); err != nil {
			t.Fatal(err)
		}
		rb, err := RunRecording(simB, mp)
		if err != nil {
			t.Fatal(err)
		}
		for tile := 0; tile < 9; tile++ {
			for _, kind := range []ResourceKind{KindCoreIn, KindCoreOut} {
				iv := rb.Occupancies(kind, tile)
				for i := 1; i < len(iv); i++ {
					if iv[i-1].End >= iv[i].Start {
						t.Fatalf("arbitrated %s overlaps: %v", kind, iv)
					}
				}
			}
		}
	}
}

func TestOccupanciesNilWithoutRecording(t *testing.T) {
	sim := newPaperSim(t)
	res, err := sim.Run(paperMappingA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Occupancies(KindRouter, 0) != nil {
		t.Fatal("occupancies present without recording")
	}
	res2, err := RunRecording(sim, paperMappingA)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Occupancies(KindRouter, 99) != nil || res2.Occupancies(ResourceKind(42), 0) != nil {
		t.Fatal("out-of-range occupancies not nil")
	}
}

func TestComputeDelayAccessor(t *testing.T) {
	ps := PacketSchedule{Ready: 10, Start: 16}
	if ps.ComputeDelay() != 6 {
		t.Fatalf("ComputeDelay = %d", ps.ComputeDelay())
	}
}

func TestResourceKindStrings(t *testing.T) {
	want := map[ResourceKind]string{
		KindRouter: "router", KindRouterPort: "router-port", KindLink: "link",
		KindCoreOut: "core-out", KindCoreIn: "core-in", ResourceKind(9): "?",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// A single-packet CDCG on a 1x2 mesh: smallest possible system.
func TestMinimalSystem(t *testing.T) {
	mesh, _ := topology.NewMesh(2, 1)
	g := &model.CDCG{
		Cores:   model.MakeCores(2, "src", "dst"),
		Packets: []model.Packet{{ID: 0, Src: 0, Dst: 1, Compute: 5, Bits: 10}},
	}
	cfg := noc.Default()
	sim, err := NewSimulator(mesh, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(mapping.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	// K=2 routers: delivered = 5 + 2*(2+1) + 10 = 21.
	if res.ExecCycles != 21 {
		t.Fatalf("texec = %d, want 21", res.ExecCycles)
	}
}
