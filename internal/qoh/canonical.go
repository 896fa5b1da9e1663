package qoh

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"approxqo/internal/graph"
	"approxqo/internal/num"
)

// Canonical identity for QO_H instances — the exact analogue of the
// qon package's: the pipelined-hash-join cost model is
// relabel-equivariant (proven by its metamorphic suite), so the serving
// cache keys QO_H jobs on Fingerprint to make relabeled repeats hit.
// The memory budget M and the effective ψ are global scalars, folded
// into the hash header rather than the per-vertex encoding.

// Relabel returns the instance with relation i renamed to pi[i]; pi
// must be a permutation of 0..n-1. M, ψ and the num.Num values are
// shared (immutable); slices are fresh.
func Relabel(in *Instance, pi []int) *Instance {
	n := in.N()
	q := graph.New(n)
	for _, e := range in.Q.Edges() {
		q.AddEdge(pi[e[0]], pi[e[1]])
	}
	out := &Instance{Q: q, T: make([]num.Num, n), S: make([][]num.Num, n), M: in.M, Psi: in.Psi}
	for i := 0; i < n; i++ {
		out.S[i] = make([]num.Num, n)
	}
	for i := 0; i < n; i++ {
		out.T[pi[i]] = in.T[i]
		for j := 0; j < n; j++ {
			out.S[pi[i]][pi[j]] = in.S[i][j]
		}
	}
	return out
}

// canonData adapts the instance for graph.CanonicalOrder; see the qon
// analogue for the encoding conventions.
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
			return in.S[u][v].CanonicalAppend(dst)
		},
	}
}

// Canonicalize returns the canonical form of the instance and the
// permutation pi mapping the original labels into it (canonical =
// Relabel(in, pi)).
func Canonicalize(in *Instance) (*Instance, []int) {
	_, pi := CanonicalID(in)
	return Relabel(in, pi), pi
}

// Fingerprint returns a hex string identifying the instance up to
// relabeling: equal exactly when two instances are renamings of each
// other with the same memory budget and effective ψ (an unset Psi and
// an explicit DefaultPsi fingerprint identically — they denote the
// same instance). Deterministic across processes and runs.
func Fingerprint(in *Instance) string {
	fp, _ := CanonicalID(in)
	return fp
}

// CanonicalID computes the fingerprint and the canonicalizing
// permutation in one canonical-order search; see the qon analogue.
func CanonicalID(in *Instance) (string, []int) {
	ord, enc := graph.CanonicalOrder(canonData(in))
	pi := make([]int, len(ord))
	for pos, v := range ord {
		pi[v] = pos
	}
	h := sha256.New()
	h.Write([]byte("qoh\x00"))
	h.Write([]byte(strconv.Itoa(in.N())))
	h.Write([]byte{0})
	h.Write(in.M.CanonicalAppend(nil))
	h.Write([]byte{0})
	h.Write([]byte(strconv.FormatFloat(in.psi(), 'b', -1, 64)))
	h.Write([]byte{0})
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil)), pi
}
