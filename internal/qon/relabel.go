package qon

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"

	"approxqo/internal/graph"
	"approxqo/internal/num"
)

// Relabel identity: an exact shortcut past the canonical search.
//
// RelabelID colors the relations by refinement alone (graph.RefineColors)
// over exactly the data CanonicalID reads — sizes, off-diagonal
// selectivities, both access-cost orientations and the edge bits, never
// a diagonal entry — keyed by each value's num.Key. The colors are
// deterministic functions of that data, so relabelings of one instance
// color corresponding relations alike. When the colors are pairwise
// distinct (a discrete partition), ordering the relations by color
// relabels every relabeling of the instance into one and the same
// instance, and the SHA-256 of that relabeled instance identifies the
// class exactly. A discrete partition also leaves the instance no
// automorphism but the identity, so there is exactly one permutation
// into CanonicalID's canonical form: if π and σ are CanonicalID's and
// RelabelID's permutations of one instance P, then for every relabeling
// R of P with the same digest, π∘σ_P⁻¹∘σ_R is bit for bit the
// permutation CanonicalID(R) returns. The serving cache indexes entries
// by this digest and serves relabeled hits without a canonical search.
// Symmetric instances (the uniform cliques of the f_N reduction) never
// refine to a discrete partition; RelabelID reports ok = false and the
// caller takes CanonicalID.

// RelabelID returns the color order sigma (sigma[v] is relation v's
// position when the relations are sorted by refined color), the
// SHA-256 of the instance relabeled by sigma (Relabel(in, sigma),
// diagonal entries excluded), and ok = true when the refinement is
// discrete. On ok = false sigma is nil and the digest is zero. Two
// instances with equal digests are relabelings of each other, and
// every relabeling of a discretely refined instance has the same
// digest.
func RelabelID(in *Instance) (sigma []int, digest [sha256.Size]byte, ok bool) {
	n := in.N()
	r := relabelPool.Get().(*relabeler)
	defer func() {
		if n <= maxPooledRelabelN {
			relabelPool.Put(r)
		}
	}()
	r.reset(n)
	// Every value's Key is read once, into the scratch, and hashed once:
	// the colors and the digest both come from these.
	for v := 0; v < n; v++ {
		r.tk[v] = in.T[v].Key()
		r.vh[v] = foldKey(vertexSeed, r.tk[v])
		for u := 0; u < n; u++ {
			if u != v {
				i := v*n + u
				r.sk[i], r.wk[i] = in.S[v][u].Key(), in.W[v][u].Key()
				r.sh[i], r.wh[i] = foldKey(pairSeed, r.sk[i]), foldKey(pairSeed, r.wk[i])
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			h := r.sh[u*n+v]
			r.edge[u*n+v] = 0
			if in.Q.HasEdge(u, v) {
				h = mix(h, edgeSeed)
				r.edge[u*n+v] = 1
			}
			r.pc[u*n+v] = mix(mix(h, r.wh[u*n+v]), r.wh[v*n+u])
		}
	}
	if !graph.RefineColors(r.colors, r.vh, r.pc) {
		return nil, digest, false
	}
	// ord[k] is the relation of the k-th smallest color.
	for v := range r.ord {
		r.ord[v] = v
	}
	slices.SortFunc(r.ord, func(a, b int) int { return cmp.Compare(r.colors[a], r.colors[b]) })
	sigma = make([]int, n)
	for k, v := range r.ord {
		sigma[v] = k
	}

	// The digest input is Relabel(in, sigma), row by row: the header,
	// then each relation's size followed by its view of every other
	// relation in sigma order (edge bit, selectivity, access cost). The
	// access cost of the other orientation is that relation's own view.
	enc := append(r.enc[:0], "qon-relabel\x00"...)
	enc = binary.AppendUvarint(enc, uint64(n))
	for _, u := range r.ord {
		enc = r.tk[u].Append(enc)
		for _, v := range r.ord {
			if u == v {
				continue
			}
			enc = append(enc, r.edge[u*n+v])
			enc = r.sk[u*n+v].Append(enc)
			enc = r.wk[u*n+v].Append(enc)
		}
	}
	r.enc = enc
	return sigma, sha256.Sum256(enc), true
}

// maxPooledRelabelN is the largest instance whose RelabelID scratch
// goes back to the pool; the scratch grows as n².
const maxPooledRelabelN = 64

// relabelPool recycles RelabelID's scratch; a call takes it on entry
// and returns it on exit, so nothing returned aliases it.
var relabelPool = sync.Pool{New: func() any { return new(relabeler) }}

// relabeler is the scratch of one RelabelID call. Pair-indexed slices
// hold entry u·n+v for the ordered pair (u, v); the diagonal is unused.
type relabeler struct {
	tk, sk, wk     []num.Key // the values' Keys: sizes, selectivities, access costs
	sh, wh         []uint64  // the hashes of sk and wk
	vh, pc, colors []uint64  // vertex codes, pair codes, refined colors
	edge           []byte    // 1 on an edge of the query graph, else 0
	ord            []int
	enc            []byte
}

func (r *relabeler) reset(n int) {
	keys := slices.Grow(r.tk[:0], n+2*n*n)[:n+2*n*n]
	r.tk, r.sk, r.wk = keys[:n], keys[n:n+n*n], keys[n+n*n:]
	u64 := slices.Grow(r.sh[:0], 3*n*n+2*n)[:3*n*n+2*n]
	r.sh, r.wh, r.pc, u64 = u64[:n*n], u64[n*n:2*n*n], u64[2*n*n:3*n*n], u64[3*n*n:]
	r.vh, r.colors = u64[:n], u64[n:]
	r.edge = slices.Grow(r.edge[:0], n*n)[:n*n]
	r.ord = slices.Grow(r.ord[:0], n)[:n]
}

// Seeds of the color codes. Vertex and pair codes start from distinct
// values, and an edge folds edgeSeed into its pair code, so the edge
// bit always enters it.
const (
	vertexSeed uint64 = 0x243f6a8885a308d3
	pairSeed   uint64 = 0x13198a2e03707344
	edgeSeed   uint64 = 0xa4093822299f31d0
)

// foldKey folds a value's Key into the code h. Keys with high mantissa
// words fold them too; a float64-derived value has none. The codes
// only steer refinement: a collision can merge two colors and cost a
// fallback to CanonicalID, never a wrong identity.
func foldKey(h uint64, k num.Key) uint64 {
	h = mix(h, k.M[0])
	h = mix(h, k.M[1])
	if k.M[2]|k.M[3] != 0 {
		h = mix(mix(h, k.M[2]), k.M[3])
	}
	return mix(h, uint64(k.Exp))
}

// mix is one multiply-fold step (wyhash's mum): cheap, and every input
// bit reaches the whole result.
func mix(h, w uint64) uint64 {
	hi, lo := bits.Mul64(h^0xa0761d6478bd642f, w^0xe7037ed1a0b428db)
	return hi ^ lo
}
