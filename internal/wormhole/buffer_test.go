package wormhole

import (
	"math/rand"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
)

// twoFlowContention builds two independent packets that share the t1->t3
// output port of the paper's 2x2 mesh under mapping (a) semantics: B->F
// first, then A->F arriving while the port is held.
func contendingCDCG() *model.CDCG {
	cores := model.MakeCores(4, "A", "B", "E", "F")
	return &model.CDCG{
		Name:  "contend",
		Cores: cores,
		Packets: []model.Packet{
			{ID: 0, Src: 1, Dst: 3, Compute: 10, Bits: 40}, // B->F
			{ID: 1, Src: 0, Dst: 3, Compute: 42, Bits: 15}, // A->F, arrives at t1 mid-stream
		},
	}
}

func runBuffered(t *testing.T, policy noc.BufferPolicy, depth int64) *Result {
	t.Helper()
	mesh, err := topology.NewMesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := noc.PaperExample()
	cfg.Buffers = policy
	cfg.BufferFlits = depth
	sim, err := NewSimulator(mesh, cfg, contendingCDCG())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunRecording(sim, mapping.Mapping{1, 0, 3, 2}) // B@t1, A@t2, F@t3, E@t4
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBoundedBuffersExtendUpstreamOccupancy(t *testing.T) {
	unb := runBuffered(t, noc.BuffersUnbounded, 0)
	// A->F stalls at the t1->t3 port: arrival at 46, port busy [11,52]
	// by B->F, acquired at 53 => stall 7 (the paper's Figure-4 value).
	if unb.Packets[1].Contention != 7 {
		t.Fatalf("unbounded contention = %d, want 7", unb.Packets[1].Contention)
	}
	mesh := unb.occLink(t)

	// With a 2-flit input buffer, 7-2 = 5 stall cycles overflow onto the
	// upstream t2->t1 link: its booking for A->F extends from [45,60] to
	// [45,65].
	bounded := runBuffered(t, noc.BuffersBounded, 2)
	link := bounded.Occupancies(KindLink, mesh)
	if len(link) != 1 || link[0].Start != 45 || link[0].End != 65 {
		t.Fatalf("bounded upstream link = %v, want [45,65]", link)
	}
	// Header timing (and so delivery) is unchanged by the occupancy
	// extension.
	if bounded.Packets[1].Delivered != unb.Packets[1].Delivered {
		t.Fatalf("delivery changed: %d vs %d", bounded.Packets[1].Delivered, unb.Packets[1].Delivered)
	}

	// A buffer at least as deep as the stall absorbs everything.
	deep := runBuffered(t, noc.BuffersBounded, 7)
	link = deep.Occupancies(KindLink, mesh)
	if len(link) != 1 || link[0].End != 60 {
		t.Fatalf("deep-buffer upstream link = %v, want end 60", link)
	}
}

// occLink finds the dense index of the t2->t1 link on the 2x2 mesh.
func (r *Result) occLink(t *testing.T) int {
	t.Helper()
	mesh, err := topology.NewMesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	li, ok := mesh.LinkIndex(1, 0)
	if !ok {
		t.Fatal("no t2->t1 link")
	}
	return li
}

func TestUnboundedEqualsVeryDeepBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mesh, _ := topology.NewMesh(3, 3)
	for trial := 0; trial < 25; trial++ {
		nc := 3 + rng.Intn(6)
		g := randomValidCDCG(rng, nc, 30)
		mp, _ := mapping.Random(rng, nc, 9)

		cfgU := noc.Default()
		simU, err := NewSimulator(mesh, cfgU, g)
		if err != nil {
			t.Fatal(err)
		}
		ru, err := simU.Run(mp)
		if err != nil {
			t.Fatal(err)
		}

		cfgB := noc.Default()
		cfgB.Buffers = noc.BuffersBounded
		cfgB.BufferFlits = 1 << 40 // effectively infinite
		simB, err := NewSimulator(mesh, cfgB, g)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := simB.Run(mp)
		if err != nil {
			t.Fatal(err)
		}
		if ru.ExecCycles != rb.ExecCycles || ru.TotalContention != rb.TotalContention {
			t.Fatalf("trial %d: unbounded %d/%d != deep bounded %d/%d",
				trial, ru.ExecCycles, ru.TotalContention, rb.ExecCycles, rb.TotalContention)
		}
	}
}

// Shrinking buffers can only lengthen resource occupancy, which can only
// delay later packets; texec is monotonically non-increasing in buffer
// depth ON THE SAME greedy schedule order. Because extensions can also
// reorder the schedule, we assert the weaker, always-true invariant:
// bounded-buffer texec is never below the dependence lower bound, and a
// zero-depth buffer produces at least as much total occupancy as a deep
// one.
func TestBoundedBuffersSane(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mesh, _ := topology.NewMesh(3, 3)
	for trial := 0; trial < 20; trial++ {
		nc := 3 + rng.Intn(6)
		g := randomValidCDCG(rng, nc, 30)
		mp, _ := mapping.Random(rng, nc, 9)
		lb, err := g.ComputeLowerBound()
		if err != nil {
			t.Fatal(err)
		}
		for _, depth := range []int64{1, 4, 64} {
			cfg := noc.Default()
			cfg.Buffers = noc.BuffersBounded
			cfg.BufferFlits = depth
			sim, err := NewSimulator(mesh, cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(mp)
			if err != nil {
				t.Fatal(err)
			}
			if res.ExecCycles < lb {
				t.Fatalf("trial %d depth %d: texec %d below lower bound %d",
					trial, depth, res.ExecCycles, lb)
			}
			for i, ps := range res.Packets {
				min := cfg.UncontendedDelay(ps.K, ps.Flits)
				if ps.Delivered-ps.Start < min {
					t.Fatalf("trial %d depth %d packet %d faster than physics", trial, depth, i)
				}
			}
		}
	}
}
