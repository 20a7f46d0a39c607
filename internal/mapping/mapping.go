// Package mapping represents core→tile assignments (the solutions of the
// paper's mapping problem) and the operations search engines need on them:
// validation, random initialisation, swap moves and exhaustive enumeration
// of injective placements.
package mapping

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/topology"
)

// Unassigned marks a tile with no core in occupancy views.
const Unassigned model.CoreID = -1

// Mapping assigns each core (by index) to a tile. A valid mapping is
// injective: one core per tile, which is the paper's formulation (n!
// possible solutions on n tiles).
type Mapping []topology.TileID

// Clone returns a deep copy.
func (m Mapping) Clone() Mapping {
	c := make(Mapping, len(m))
	copy(c, m)
	return c
}

// Validate checks that every core is placed on a distinct, in-range tile.
func (m Mapping) Validate(numTiles int) error {
	return m.ValidateInto(numTiles, make([]model.CoreID, numTiles))
}

// ValidateInto is Validate with a caller-owned occupancy buffer: it
// reports exactly the same errors without allocating, which is what lets
// per-run mapping validation stay on the simulator's allocation-free hot
// path. seen must hold at least numTiles entries; its contents are
// overwritten (and carry the tile→core view of a valid mapping on
// return).
//
//nocvet:noalloc
func (m Mapping) ValidateInto(numTiles int, seen []model.CoreID) error {
	if len(m) == 0 {
		return fmt.Errorf("mapping: empty")
	}
	if len(m) > numTiles {
		return fmt.Errorf("mapping: %d cores cannot be placed injectively on %d tiles", len(m), numTiles)
	}
	seen = seen[:numTiles]
	for i := range seen {
		seen[i] = Unassigned
	}
	for c, t := range m {
		if int(t) < 0 || int(t) >= numTiles {
			return fmt.Errorf("mapping: core %d on tile %d outside [0,%d)", c, t, numTiles)
		}
		if prev := seen[t]; prev != Unassigned {
			return fmt.Errorf("mapping: cores %d and %d share tile %d", prev, c, t)
		}
		seen[t] = model.CoreID(c)
	}
	return nil
}

// Occupants returns the inverse view: for each tile, the core it hosts or
// Unassigned.
func (m Mapping) Occupants(numTiles int) []model.CoreID {
	occ := make([]model.CoreID, numTiles)
	for i := range occ {
		occ[i] = Unassigned
	}
	for c, t := range m {
		occ[t] = model.CoreID(c)
	}
	return occ
}

// Random places numCores cores uniformly at random on distinct tiles of a
// numTiles-tile NoC, the paper's initial condition ("initially, all cores
// of C are randomly mapped onto the set of tiles").
func Random(rng *rand.Rand, numCores, numTiles int) (Mapping, error) {
	if numCores <= 0 {
		return nil, fmt.Errorf("mapping: need at least one core, got %d", numCores)
	}
	if numCores > numTiles {
		return nil, fmt.Errorf("mapping: %d cores do not fit on %d tiles", numCores, numTiles)
	}
	perm := rng.Perm(numTiles)
	m := make(Mapping, numCores)
	for c := range m {
		m[c] = topology.TileID(perm[c])
	}
	return m, nil
}

// Identity places core i on tile i. Useful as a deterministic baseline.
func Identity(numCores int) Mapping {
	m := make(Mapping, numCores)
	for c := range m {
		m[c] = topology.TileID(c)
	}
	return m
}

// SwapTiles exchanges the occupants of tiles a and b in place, updating
// both the mapping and the occupancy view. Swapping two empty tiles is a
// no-op. This is the neighbourhood move of the annealer.
//
//nocvet:noalloc
func SwapTiles(m Mapping, occ []model.CoreID, a, b topology.TileID) {
	ca, cb := occ[a], occ[b]
	if ca != Unassigned {
		m[ca] = b
	}
	if cb != Unassigned {
		m[cb] = a
	}
	occ[a], occ[b] = cb, ca
}

// Equal reports whether two mappings place every core identically.
func Equal(a, b Mapping) bool {
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

// String renders the mapping as "core->tile" pairs for diagnostics.
func (m Mapping) String() string {
	s := "["
	for c, t := range m {
		if c > 0 {
			s += " "
		}
		s += fmt.Sprintf("c%d>t%d", c, int(t)+1)
	}
	return s + "]"
}
