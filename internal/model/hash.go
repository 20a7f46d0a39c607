package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
)

// This file defines a canonical, content-only serialization of the
// CDCG plus a content hash over it. The mapping service
// keys its result cache on these hashes: two requests whose graphs are
// semantically identical — same cores, packets and dependence relation,
// regardless of dependence-edge order or duplicate dependence entries —
// produce the same key and therefore share one computed result.
//
// The encoding is deliberately not JSON: it is length-prefixed and
// field-ordered so it cannot collide across string boundaries, never
// changes with encoder cosmetics (indentation, field order, float
// formats), and is cheap enough to run per request.

// CanonicalBytes returns the canonical serialization of the CDCG.
//
// Cores and packets are emitted in ID order (Validate pins slice order to
// ID order, so this is also slice order); dependence edges are sorted by
// (from, to) and deduplicated, making the bytes independent of the order
// in which Deps was assembled. Strings are length-prefixed, so names
// containing the separator characters cannot forge another graph's
// encoding.
func (g *CDCG) CanonicalBytes() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "cdcg/v1 name=%d:%s cores=%d packets=%d\n",
		len(g.Name), g.Name, len(g.Cores), len(g.Packets))
	for _, c := range g.Cores {
		fmt.Fprintf(&b, "core %d %d:%s\n", c.ID, len(c.Name), c.Name)
	}
	for _, p := range g.Packets {
		fmt.Fprintf(&b, "pkt %d %d %d %d %d %d:%s\n",
			p.ID, p.Src, p.Dst, p.Compute, p.Bits, len(p.Label), p.Label)
	}
	deps := make([]Dep, len(g.Deps))
	copy(deps, g.Deps)
	sort.Slice(deps, func(i, j int) bool {
		if deps[i].From != deps[j].From {
			return deps[i].From < deps[j].From
		}
		return deps[i].To < deps[j].To
	})
	var prev Dep
	for i, d := range deps {
		if i > 0 && d == prev {
			continue
		}
		prev = d
		fmt.Fprintf(&b, "dep %d %d\n", d.From, d.To)
	}
	return b.Bytes()
}

// Hash returns the hex SHA-256 of CanonicalBytes — the CDCG's identity
// for caching and deduplication.
func (g *CDCG) Hash() string {
	sum := sha256.Sum256(g.CanonicalBytes())
	return hex.EncodeToString(sum[:])
}
