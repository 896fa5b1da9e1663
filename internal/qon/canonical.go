package qon

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"approxqo/internal/graph"
	"approxqo/internal/num"
)

// Canonical identity for QO_N instances.
//
// Two instances that differ only by a renaming of the relations have
// identical optimal costs, and the metamorphic suites prove every cost
// model in this repository is relabel-equivariant. Fingerprint exploits
// that: it hashes a canonical encoding of the instance — computed by
// graph.CanonicalOrder over the join graph with the exact selectivity,
// size and access-cost values folded in — so any two relabelings of the
// same instance produce the same fingerprint, and instances that are
// not relabelings of each other produce different ones. The serving
// cache keys on it (model + fingerprint) to make cosmetically-varied
// repeats hit.
//
// The diagonal entries S[i][i] and W[i][i] are excluded: no cost model
// reads them (joins only consult pairs with one endpoint inside the
// prefix and one outside), so instances differing only there are
// cost-identical and deliberately share a fingerprint.

// Relabel returns the instance with relation i renamed to pi[i]; pi
// must be a permutation of 0..n-1. The result shares the num.Num values
// (they are immutable) but no slices with the receiver.
func Relabel(in *Instance, pi []int) *Instance {
	n := in.N()
	q := graph.New(n)
	for _, e := range in.Q.Edges() {
		q.AddEdge(pi[e[0]], pi[e[1]])
	}
	out := &Instance{Q: q, T: make([]num.Num, n), S: make([][]num.Num, n), W: make([][]num.Num, n)}
	for i := 0; i < n; i++ {
		out.S[i] = make([]num.Num, n)
		out.W[i] = make([]num.Num, n)
	}
	for i := 0; i < n; i++ {
		out.T[pi[i]] = in.T[i]
		for j := 0; j < n; j++ {
			out.S[pi[i]][pi[j]] = in.S[i][j]
			out.W[pi[i]][pi[j]] = in.W[i][j]
		}
	}
	return out
}

// canonData adapts the instance for graph.CanonicalOrder. Per the
// CanonData contract the byte encodings are label-invariant and
// NUL-free: num.CanonicalAppend emits big.Float 'p' text, and ';' / 'e'
// markers separate components. An access cost appears in the views of
// both orientations of its pair and is formatted in each.
func canonData(in *Instance) graph.CanonData {
	return graph.CanonData{
		N: in.N(),
		VertexBytes: func(dst []byte, v int) []byte {
			return in.T[v].CanonicalAppend(dst)
		},
		PairBytes: func(dst []byte, u, v int) []byte {
			e := byte('0')
			if in.Q.HasEdge(u, v) {
				e = '1'
			}
			dst = append(dst, 'e', e, ';')
			dst = in.S[u][v].CanonicalAppend(dst)
			dst = append(dst, ';')
			dst = in.W[u][v].CanonicalAppend(dst)
			dst = append(dst, ';')
			return in.W[v][u].CanonicalAppend(dst)
		},
	}
}

// Canonicalize returns the canonical form of the instance and the
// permutation pi mapping the original labels into it (canonical =
// Relabel(in, pi)). Any two relabelings of the same instance
// canonicalize to the same form (up to the cost-irrelevant diagonal
// entries), so results computed on the canonical form — in particular
// join sequences — transfer between them: a canonical-space sequence z
// maps back to original labels as z'[k] = piInv[z[k]].
func Canonicalize(in *Instance) (*Instance, []int) {
	_, pi := CanonicalID(in)
	return Relabel(in, pi), pi
}

// Fingerprint returns a hex string identifying the instance up to
// relabeling: equal exactly when two instances are renamings of each
// other (diagonal entries aside). It is deterministic across processes
// and runs.
func Fingerprint(in *Instance) string {
	fp, _ := CanonicalID(in)
	return fp
}

// CanonicalID computes the fingerprint and the canonicalizing
// permutation together — one canonical-order search instead of the two
// that separate Fingerprint and Canonicalize calls would cost. The
// serving cache needs both: the fingerprint as the key and pi to remap
// join sequences between request and canonical label spaces.
func CanonicalID(in *Instance) (string, []int) {
	ord, enc := graph.CanonicalOrder(canonData(in))
	pi := make([]int, len(ord))
	for pos, v := range ord {
		pi[v] = pos
	}
	var hdr [24]byte
	h := sha256.New()
	h.Write(strconv.AppendInt(append(hdr[:0], "qon\x00"...), int64(in.N()), 10))
	h.Write([]byte{0})
	h.Write(enc)
	var sum [sha256.Size]byte
	var fp [2 * sha256.Size]byte
	hex.Encode(fp[:], h.Sum(sum[:0]))
	return string(fp[:]), pi
}
