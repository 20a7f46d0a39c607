package wormhole_test

import (
	"encoding/binary"
	"errors"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/exp"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// simulatorDigest is the FNV-1a 64 digest of every Result field the
// simulator produces over the fixed input set of digestInputs. It was
// computed on the kernel that still carried the bounded-buffer policy,
// with only the unbounded legs in the sweep, so the policy's deletion is
// checked against it; any change to the kernel that moves a single
// cycle, bit count or schedule field changes it.
const simulatorDigest uint64 = 0xd8d0cfb41b4dc06f

// digestRuns is the number of seeded random mappings priced per input.
const digestRuns = 200

// digestInput is one (mesh, config, application, fault set) combination
// of the pinned sweep.
type digestInput struct {
	name string
	mesh *topology.Mesh
	cfg  noc.Config
	g    *model.CDCG
	fs   *topology.FaultSet
}

// digestInputs enumerates the sweep: every Table-1 row under the default
// configuration and with arbitrated core links, plus a stacked 3-D mesh,
// a torus and a faulted mesh.
func digestInputs(t *testing.T) []digestInput {
	t.Helper()
	suite, err := exp.Table1Suite()
	if err != nil {
		t.Fatal(err)
	}
	arb := noc.Default()
	arb.ArbitrateLocal = true
	var ins []digestInput
	for _, w := range suite {
		mesh, err := w.Mesh()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			cfg  noc.Config
		}{{"default", noc.Default()}, {"arblocal", arb}} {
			ins = append(ins, digestInput{name: w.Name + "/" + c.name, mesh: mesh, cfg: c.cfg, g: w.G})
		}
	}
	// The extra topologies reuse a 12-core Table-1 row, which fits each.
	g12 := suite[findRowNamed(t, suite, "imgenc-hd")].G
	m3d, err := topology.NewMesh3D(3, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	tsv := noc.Default()
	tsv.TSVLinkCycles = 3
	tor, err := topology.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := topology.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := topology.GenerateFaults(fm, 0.15, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fs.NumFailed() == 0 {
		t.Fatal("fault draw is empty")
	}
	fa := noc.Default()
	fa.Routing = topology.RouteFA
	return append(ins,
		digestInput{name: "3x2x3/tsv3", mesh: m3d, cfg: tsv, g: g12},
		digestInput{name: "torus4x4", mesh: tor, cfg: noc.Default(), g: g12},
		digestInput{name: "faulted4x4", mesh: fm, cfg: fa, g: g12, fs: fs})
}

// digestResult folds every field of r into h.
func digestResult(h hash.Hash64, r *wormhole.Result) {
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(r.ExecCycles)
	put(r.TotalContention)
	put(r.CoreBits)
	put(r.TSVBits)
	for _, p := range r.Packets {
		put(int64(p.ID))
		put(p.Ready)
		put(p.Start)
		put(p.Delivered)
		put(p.Contention)
		put(int64(p.K))
		put(p.Flits)
	}
	for _, v := range r.RouterBits {
		put(v)
	}
	for _, v := range r.LinkBits {
		put(v)
	}
}

// TestSimulatorDigestPinned is an oracle independent of the kernel's
// internals: a digest of full Results over 200 seeded random mappings per
// input, pinned to the value the pre-descriptor simulator produced. The
// faulted mesh stays connected, so its runs pin the detour routes; an
// unreachable run would contribute a fixed marker instead of a Result.
func TestSimulatorDigestPinned(t *testing.T) {
	h := fnv.New64a()
	for i, in := range digestInputs(t) {
		sim, err := wormhole.NewSimulatorFaults(in.mesh, in.cfg, in.g, in.fs)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		sc := sim.NewScratch()
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		for run := 0; run < digestRuns; run++ {
			mp, err := mapping.Random(rng, in.g.NumCores(), in.mesh.NumTiles())
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunScratch(mp, sc)
			switch {
			case errors.Is(err, wormhole.ErrUnreachable):
				h.Write([]byte{0xff})
			case err != nil:
				t.Fatalf("%s run %d: %v", in.name, run, err)
			default:
				digestResult(h, res)
			}
		}
	}
	if got := h.Sum64(); got != simulatorDigest {
		t.Fatalf("simulator digest = %#x, want %#x", got, simulatorDigest)
	}
}
