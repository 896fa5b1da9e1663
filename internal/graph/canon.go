// Canonical ordering of weighted-graph-shaped structures.
//
// CanonicalOrder computes a label-invariant vertex ordering for any
// structure describable as per-vertex bytes plus per-ordered-pair
// bytes: two isomorphic structures (identical up to a relabeling of
// the vertices) produce byte-identical canonical encodings, and two
// structures with the same encoding are isomorphic. The qon and qoh
// instance fingerprints are built on it.
//
// The algorithm is individualization–refinement, the classical
// canonical-labeling scheme (nauty's skeleton) specialized for the
// small, densely weighted instances this repository optimizes
// (n ≤ 32 at the serving layer):
//
//  1. Seed colors: each vertex is colored by a hash of its own bytes
//     together with the multiset of its pair bytes — a label-invariant
//     starting partition.
//  2. WL refinement: colors are iteratively rehashed with the sorted
//     multiset of (neighbor color, pair bytes) until the number of
//     color classes stops growing. On weighted instances this is
//     almost always discrete after one or two rounds.
//  3. Search: while the partition has ties, the minimal color class is
//     chosen (a label-invariant cell), one candidate is individualized,
//     the partition is re-refined, and the search recurses; the
//     canonical encoding is the lexicographic minimum over all explored
//     completions. Three prunes keep the tree small: branches whose
//     partial encoding already exceeds the best found are cut;
//     candidates that are pairwise twins (swapping them is an
//     automorphism) collapse to one representative — the uniform-weight
//     hardness instances (cliques from the f_N reduction, star gadgets)
//     are fully symmetric, and twin classes reduce their search to a
//     single path; and candidates in the orbit of an explored sibling
//     under the automorphisms found so far are skipped (see search).
//
// Hash collisions in the color refinement are harmless for
// correctness: colors only steer the search, and they are
// deterministic functions of the (label-invariant) data, so both
// relabelings of an instance see the same collisions and explore
// isomorphic trees. The final comparison is on full encoding bytes.
package graph

import (
	"bytes"
	"slices"
	"sync"
)

// CanonData describes a structure to canonicalize. Both callbacks must
// be label-invariant data accessors (they may depend on the vertex
// identities only through the data they append), and the appended
// bytes must not contain 0x00 — the encoder uses NUL as its component
// separator. Each callback appends to dst and returns the extended
// slice; CanonicalOrder calls VertexBytes once per vertex and
// PairBytes once per ordered pair, into one shared arena.
type CanonData struct {
	// N is the vertex count.
	N int
	// VertexBytes appends the per-vertex data of v (e.g. its relation
	// size), exact values included.
	VertexBytes func(dst []byte, v int) []byte
	// PairBytes appends u's complete view of the ordered pair (u, v):
	// adjacency, selectivity, and any direction-dependent weights of
	// both orientations. The encoding stores PairBytes(v, u) for every
	// pair placed u-before-v, so the pair data of both directions must
	// be recoverable from that single call.
	PairBytes func(dst []byte, u, v int) []byte
}

// individualizeSeed derives the color an individualized vertex takes
// at depth d: fnvU64(individualizeSeed, d), the same for every
// candidate.
const individualizeSeed = 0x9e3779b97f4a7c15

// CanonicalOrder returns ord — ord[k] is the original vertex placed at
// canonical position k — and the canonical encoding: the
// lexicographically least concatenation, over all label-invariant
// orderings explored, of each vertex's data row against its
// predecessors. Isomorphic structures yield identical encodings;
// identical encodings imply isomorphic structures.
func CanonicalOrder(d CanonData) ([]int, []byte) {
	return canonicalOrder(d, 2*d.N)
}

// canonicalOrder is CanonicalOrder keeping at most maxAutos
// automorphisms for orbit pruning; 0 turns orbit pruning off.
func canonicalOrder(d CanonData, maxAutos int) ([]int, []byte) {
	n := d.N
	if n == 0 {
		return []int{}, []byte{}
	}
	c := canonizerPool.Get().(*canonizer)
	c.reset(d, maxAutos)
	c.computeTwins()

	// Seed colors from the vertex bytes, then refine.
	for v := 0; v < n; v++ {
		c.next[v] = fnvBytes(fnvOffset, c.vb(v))
	}
	c.seed(c.next)
	c.refine(c.levels[0].colors)
	c.search(0, 0, false)

	// The results are copied out of the canonizer's slabs, so nothing
	// returned aliases pooled memory.
	ord := make([]int, n)
	copy(ord, c.bestOrd)
	enc := make([]byte, len(c.best))
	copy(enc, c.best)
	if n <= maxPooledN {
		canonizerPool.Put(c)
	}
	return ord, enc
}

// canonizerPool recycles canonizers, slabs and all, across
// CanonicalOrder calls. Only canonicalOrder touches it: a call takes
// a canonizer on entry and puts it back on return, after copying out
// everything it returns, so the pool is private to one call at a time
// and no caller ever holds pooled memory.
var canonizerPool = sync.Pool{New: func() any { return new(canonizer) }}

// maxPooledN is the largest vertex count whose canonizer goes back to
// the pool: the slabs grow as n², and one large call must not pin them.
const maxPooledN = 64

// canonizer carries the search state of one CanonicalOrder call. Its
// buffers are carved from a few slabs sized from n (reset), kept
// across calls through canonizerPool, so a warm call allocates
// nothing however wide the search grows (only the automorphism list
// and the row stack may grow, by doubling).
type canonizer struct {
	// refiner holds n, the pair codes (pc[u·n+v]: hash of the pair
	// bytes of (u, v)) and the refinement scratch.
	refiner
	// arena holds every vertex's bytes, then every ordered pair's, as
	// the callbacks appended them; entry i spans arena[off[i]:off[i+1]],
	// vertex v is entry v and the pair (u, v) entry n + u·n + v (empty
	// on the diagonal).
	arena []byte
	off   []int
	twin  []bool // twin[u·n+v]: swapping u and v is an automorphism

	levels []level // per-depth search scratch
	// rows is a stack of candidate rows: each node appends its
	// candidates' rows above its ancestors' and truncates on return.
	rows []byte

	ord     []int  // current prefix (original vertex per position)
	placed  []bool // membership of ord
	buf     []byte // encoding of the current prefix
	found   bool   // best holds a complete encoding
	best    []byte // least complete encoding found
	bestOrd []int  // its ordering

	// autos holds automorphisms found at leaves equal to best, each a
	// permutation of n entries, at most maxAutos of them. prunable is
	// cleared the first time a leaf is accepted under alreadyLess; see
	// search for why orbit pruning is sound only before that.
	autos    []int
	maxAutos int
	prunable bool

	// The slabs the buffers above are carved from.
	intSlab  []int
	u64Slab  []uint64
	boolSlab []bool
	byteSlab []byte
}

// level is the scratch of one search depth: the refined partition the
// node was entered with, its candidate representatives with their
// rows' offsets in the rows stack, the exploration order, and the
// orbit partition of the candidates under the automorphisms fixing the
// prefix.
type level struct {
	colors   []uint64
	reps     []int
	rowOff   []int
	idx      []int
	orbit    []int // union-find parent per vertex
	explored []int
}

// reset prepares c for a call on d: it re-carves every buffer from
// the slabs, growing a slab only when it is too small for n, and reads
// the vertex and pair bytes into the arena.
func (c *canonizer) reset(d CanonData, maxAutos int) {
	n := d.N
	c.n, c.maxAutos, c.prunable, c.found = n, maxAutos, true, false
	c.autos = c.autos[:0]
	entries := n + n*n
	ints := slab(&c.intSlab, entries+1+2*n+n*(5*n+1))
	c.off, ints = ints[:entries+1], ints[entries+1:]
	c.ord, c.bestOrd, ints = ints[:0:n], ints[n:n:2*n], ints[2*n:]
	c.off[0] = 0
	c.arena = c.arena[:0]
	for v := 0; v < n; v++ {
		c.arena = d.VertexBytes(c.arena, v)
		c.off[v+1] = len(c.arena)
	}
	for u := 0; u < n; u++ {
		if u == 1 {
			// Reserve the remaining rows at the first row's size.
			c.arena = slices.Grow(c.arena, (len(c.arena)-c.off[n])*(n-1)*9/8)
		}
		for v := 0; v < n; v++ {
			if u != v {
				c.arena = d.PairBytes(c.arena, u, v)
			}
			c.off[n+u*n+v+1] = len(c.arena)
		}
	}

	u64 := slab(&c.u64Slab, n*n+4*n+n*n)
	c.pc, u64 = u64[:n*n], u64[n*n:]
	for i := range c.pc {
		c.pc[i] = fnvBytes(fnvOffset, c.entry(n+i))
	}
	c.cur, c.next, c.sorted, c.sig, u64 = u64[:n:n], u64[n:2*n:2*n], u64[2*n:3*n:3*n], u64[3*n:4*n:4*n], u64[4*n:]
	c.levels = slab(&c.levels, n)
	for d := range c.levels {
		l := &c.levels[d]
		l.colors, u64 = u64[:n:n], u64[n:]
		l.reps, l.idx, l.explored, l.orbit = ints[0:0:n], ints[n:n:2*n], ints[2*n:2*n:3*n], ints[3*n:4*n:4*n]
		l.rowOff, ints = ints[4*n:4*n:5*n+1], ints[5*n+1:]
	}
	bools := slab(&c.boolSlab, n+n*n)
	clear(bools)
	c.placed, c.twin = bools[:n], bools[n:]
	enc := (len(c.arena)+c.off[n])/2 + n*n + n // vertex bytes, half the pair bytes, NULs
	bs := slab(&c.byteSlab, 2*enc+len(c.arena)/2)
	c.buf, c.best, c.rows = bs[0:0:enc], bs[enc:enc:2*enc], bs[2*enc:2*enc]
}

// slab returns (*s)[:size], first replacing *s with a larger slice
// when its capacity is short. The contents are whatever the slab held.
func slab[T any](s *[]T, size int) []T {
	if cap(*s) < size {
		*s = make([]T, size)
	}
	return (*s)[:size]
}

func (c *canonizer) entry(i int) []byte { return c.arena[c.off[i]:c.off[i+1]] }

// vb returns the vertex bytes of v.
func (c *canonizer) vb(v int) []byte { return c.entry(v) }

// pb returns the pair bytes of (u, v): u's view of the pair.
func (c *canonizer) pb(u, v int) []byte { return c.entry(c.n + u*c.n + v) }

// computeTwins marks vertex pairs whose transposition is an
// automorphism: identical vertex bytes, consistent cross-pair bytes,
// and identical views of every third vertex. Pairwise twins within a
// candidate cell are interchangeable — their search subtrees produce
// identical encodings — so only one representative is explored. Pair
// codes are compared before bytes: unequal hashes rule a pair out
// without touching the arena.
func (c *canonizer) computeTwins() {
	n := c.n
	same := func(a, b int) bool { // pair (a) and pair (b) carry equal bytes
		return c.pc[a] == c.pc[b] && bytes.Equal(c.entry(n+a), c.entry(n+b))
	}
	for u := 0; u < n; u++ {
	pair:
		for v := u + 1; v < n; v++ {
			if !bytes.Equal(c.vb(u), c.vb(v)) || !same(u*n+v, v*n+u) {
				continue
			}
			for w := 0; w < n; w++ {
				if w == u || w == v {
					continue
				}
				if !same(u*n+w, v*n+w) || !same(w*n+u, w*n+v) {
					continue pair
				}
			}
			c.twin[u*n+v], c.twin[v*n+u] = true, true
		}
	}
}

// refiner is the seed-and-refine stage of canonical labeling, shared
// by canonicalOrder (on the hashes of its vertex and pair bytes) and
// RefineColors (on caller-supplied codes): the pair codes and four
// n-length scratch vectors.
type refiner struct {
	n  int
	pc []uint64 // pc[u·n+v]: code of u's view of the pair (u, v)

	cur, next, sorted, sig []uint64
	u64                    []uint64 // RefineColors' slab; a canonizer carves from its own
}

// RefineColors runs the seed-and-refine stage of canonical labeling on
// caller-supplied codes: vh[v] is a label-invariant code of vertex v's
// own data and pc[u·n+v] of u's view of the pair (u, v) (the diagonal
// is never read). It writes the refined colors to dst and reports
// whether they are pairwise distinct. The colors are deterministic
// functions of the codes, so isomorphic inputs get the same colors on
// corresponding vertices, and a discrete partition leaves the input no
// automorphism but the identity: any automorphism preserves every
// color. A warm call allocates nothing.
func RefineColors(dst, vh, pc []uint64) bool {
	n := len(vh)
	if n == 0 {
		return true
	}
	r := refinerPool.Get().(*refiner)
	u64 := slab(&r.u64, 4*n)
	r.n, r.pc = n, pc
	r.cur, r.next, r.sorted, r.sig = u64[:n:n], u64[n:2*n:2*n], u64[2*n:3*n:3*n], u64[3*n:4*n:4*n]
	r.seed(vh)
	discrete := r.refine(dst) == n
	r.pc = nil
	if n <= maxPooledN {
		refinerPool.Put(r)
	}
	return discrete
}

// refinerPool recycles RefineColors' scratch; like canonizerPool it is
// private to one call at a time.
var refinerPool = sync.Pool{New: func() any { return new(refiner) }}

// seed writes the starting partition into r.cur: vertex v's code vh[v]
// folded with the sorted multiset of its pair codes, a label-invariant
// coloring. vh may alias r.next.
func (r *refiner) seed(vh []uint64) {
	n := r.n
	sig := r.sig
	for v := 0; v < n; v++ {
		sig = sig[:0]
		for u := 0; u < n; u++ {
			if u != v {
				sig = append(sig, r.pc[v*n+u])
			}
		}
		slices.Sort(sig)
		h := vh[v]
		for _, s := range sig {
			h = fnvU64(h, s)
		}
		r.cur[v] = h
	}
}

// refine runs WL-style color refinement to a fixed point on the
// coloring held in r.cur and writes the result to dst: each round
// rehashes every vertex with the sorted multiset of (color, pair code)
// over all other vertices, stopping when the class count stops
// growing (or everything is discrete). It returns the class count of
// dst.
func (r *refiner) refine(dst []uint64) int {
	n := r.n
	cur, next := r.cur, r.next
	sig := r.sig[:0]
	classes := r.countDistinct(cur)
	for round := 0; round < n && classes < n; round++ {
		for v := 0; v < n; v++ {
			sig = sig[:0]
			row := r.pc[v*n : v*n+n]
			for u := 0; u < n; u++ {
				if u != v {
					sig = append(sig, fnvU64(cur[u], row[u]))
				}
			}
			slices.Sort(sig)
			h := fnvU64(fnvOffset, cur[v])
			for _, s := range sig {
				h = fnvU64(h, s)
			}
			next[v] = h
		}
		nc := r.countDistinct(next)
		if nc <= classes {
			break
		}
		classes = nc
		cur, next = next, cur
	}
	copy(dst, cur)
	return classes
}

// countDistinct counts the distinct values of vs, sorting a copy.
func (r *refiner) countDistinct(vs []uint64) int {
	s := r.sorted
	copy(s, vs)
	slices.Sort(s)
	k := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			k++
		}
	}
	return k
}

// search extends the current prefix by every canonical candidate. The
// node's partition is c.levels[depth].colors; off is the length of buf
// known equal to best; alreadyLess marks a branch strictly below the
// current best.
//
// Orbit pruning. A leaf whose encoding equals best yields an
// automorphism γ: bestOrd[k] ↦ ord[k] (recordAuto). The stored
// automorphisms that fix the node's prefix pointwise generate a group
// whose orbits partition the candidates, and a candidate w in the orbit
// of a sibling v explored before it is skipped. Some γ in the group
// maps v's subtree onto w's (colors, cells and twin classes are
// functions of the data, which γ preserves), so both hold the same leaf
// encodings. While every leaf has been accepted only for being strictly
// below best, best never rises and is at most every leaf of an explored
// or pruned subtree, so no leaf or prefix of w's subtree compares below
// it: exploring it could change neither best nor bestOrd. Leaves under
// alreadyLess are accepted without comparison (the last one of such a
// subtree wins), which breaks that invariant; the first one turns orbit
// pruning off for the rest of the search, so the result stays exactly
// that of the unpruned search. Nodes under alreadyLess never prune by
// orbit.
func (c *canonizer) search(depth, off int, alreadyLess bool) {
	n := c.n
	if depth == n {
		switch {
		case !c.found || alreadyLess || lexLess(c.buf, c.best):
			if alreadyLess {
				c.prunable = false
			}
			c.found = true
			c.best = append(c.best[:0], c.buf...)
			c.bestOrd = append(c.bestOrd[:0], c.ord...)
		case len(c.autos) < c.maxAutos*n && bytes.Equal(c.buf, c.best):
			c.recordAuto()
		}
		return
	}
	l := &c.levels[depth]
	colors := l.colors
	// Target cell: unplaced vertices of minimal color. The color values
	// are data-derived hashes, so the cell is label-invariant.
	var minColor uint64
	first := true
	for v := 0; v < n; v++ {
		if !c.placed[v] {
			if first || colors[v] < minColor {
				minColor, first = colors[v], false
			}
		}
	}
	// Collapse twin classes: one representative each. Classes are built
	// greedily requiring pairwise twin-ness, so every transposition
	// within a class is an automorphism and the pruned subtrees are
	// byte-identical to the explored one.
	reps := l.reps[:0]
	for v := 0; v < n; v++ {
		if c.placed[v] || colors[v] != minColor {
			continue
		}
		dup := false
		for _, r := range reps {
			if c.twin[r*n+v] {
				dup = true
				break
			}
		}
		if !dup {
			reps = append(reps, v)
		}
	}
	l.reps = reps
	// Explore cheapest row first so the best tightens early.
	rowsMark := len(c.rows)
	l.rowOff = append(l.rowOff[:0], rowsMark)
	for _, v := range reps {
		c.rows = c.appendRow(c.rows, v)
		l.rowOff = append(l.rowOff, len(c.rows))
	}
	row := func(i int) []byte { return c.rows[l.rowOff[i]:l.rowOff[i+1]] }
	l.idx = l.idx[:0]
	for i := range reps {
		l.idx = append(l.idx, i)
	}
	if len(reps) > 1 {
		slices.SortStableFunc(l.idx, func(a, b int) int { return bytes.Compare(row(a), row(b)) })
	}

	l.explored = l.explored[:0]
	nAutos := -1 // autos count the orbit partition was built from
	mark := len(c.buf)
	for _, j := range l.idx {
		v := reps[j]
		if len(l.explored) > 0 && !alreadyLess && c.prunable && len(c.autos) > 0 {
			if nAutos != len(c.autos) {
				c.buildOrbits(l)
				nAutos = len(c.autos)
			}
			if c.inExploredOrbit(l, v) {
				continue
			}
		}
		l.explored = append(l.explored, v)
		c.buf = append(c.buf, row(j)...)
		less, prune := alreadyLess, false
		newOff := off
		if c.found && !less {
			less, prune, newOff = c.compare(off)
		}
		if !prune {
			c.ord = append(c.ord, v)
			c.placed[v] = true
			if depth+1 < n { // a leaf reads no colors
				copy(c.cur, colors)
				c.cur[v] = fnvU64(individualizeSeed, uint64(depth))
				c.refine(c.levels[depth+1].colors)
			}
			c.search(depth+1, newOff, less)
			c.placed[v] = false
			c.ord = c.ord[:len(c.ord)-1]
		}
		c.buf = c.buf[:mark]
	}
	c.rows = c.rows[:rowsMark]
}

// recordAuto stores γ: bestOrd[k] ↦ ord[k] for a leaf whose encoding
// equals best. Equal encodings give every vertex and every pair placed
// later-before-earlier the same bytes under γ, and by the CanonData
// contract those pair bytes determine the other orientation's, so γ
// preserves all of the data: it is an automorphism.
func (c *canonizer) recordAuto() {
	n := c.n
	base := len(c.autos)
	c.autos = slices.Grow(c.autos, n)[:base+n]
	for k, v := range c.bestOrd {
		c.autos[base+v] = c.ord[k]
	}
}

// buildOrbits rebuilds l.orbit as the union-find of the orbits of the
// stored automorphisms that fix the current prefix pointwise.
func (c *canonizer) buildOrbits(l *level) {
	n := c.n
	for v := range l.orbit {
		l.orbit[v] = v
	}
next:
	for a := 0; a < len(c.autos); a += n {
		g := c.autos[a : a+n]
		for _, p := range c.ord {
			if g[p] != p {
				continue next
			}
		}
		for v, w := range g {
			if rv, rw := find(l.orbit, v), find(l.orbit, w); rv != rw {
				l.orbit[rw] = rv
			}
		}
	}
}

// inExploredOrbit reports whether v shares an orbit with a sibling the
// node has already explored.
func (c *canonizer) inExploredOrbit(l *level, v int) bool {
	rv := find(l.orbit, v)
	for _, u := range l.explored {
		if find(l.orbit, u) == rv {
			return true
		}
	}
	return false
}

func find(parent []int, v int) int {
	for parent[v] != v {
		parent[v] = parent[parent[v]]
		v = parent[v]
	}
	return v
}

// appendRow appends the encoding contribution of placing v next: its
// vertex bytes then its pair view against each placed vertex in prefix
// order, all NUL-separated.
func (c *canonizer) appendRow(dst []byte, v int) []byte {
	dst = append(dst, c.vb(v)...)
	dst = append(dst, 0)
	for _, u := range c.ord {
		dst = append(dst, c.pb(v, u)...)
		dst = append(dst, 0)
	}
	return dst
}

// compare advances the equality frontier between buf and best from
// off. It reports whether the branch is now strictly less, whether it
// must be pruned (strictly greater, or best is a proper prefix), and
// the new frontier.
func (c *canonizer) compare(off int) (less, prune bool, newOff int) {
	i := off
	for ; i < len(c.buf) && i < len(c.best); i++ {
		if c.buf[i] != c.best[i] {
			if c.buf[i] < c.best[i] {
				return true, false, i
			}
			return false, true, i
		}
	}
	if i == len(c.best) && len(c.buf) > len(c.best) {
		return false, true, i // best is a proper prefix of buf: buf > best
	}
	return false, false, i
}

func lexLess(a, b []byte) bool { return bytes.Compare(a, b) < 0 }

// FNV-1a, hand-rolled so colors are stable across processes (the
// fingerprints derived downstream must not vary run to run the way
// maphash seeds do).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, x := range b {
		h = (h ^ uint64(x)) * fnvPrime
	}
	return h
}

// fnvU64 folds v into h little-endian byte by byte (unrolled).
func fnvU64(h, v uint64) uint64 {
	h = (h ^ (v & 0xff)) * fnvPrime
	h = (h ^ (v >> 8 & 0xff)) * fnvPrime
	h = (h ^ (v >> 16 & 0xff)) * fnvPrime
	h = (h ^ (v >> 24 & 0xff)) * fnvPrime
	h = (h ^ (v >> 32 & 0xff)) * fnvPrime
	h = (h ^ (v >> 40 & 0xff)) * fnvPrime
	h = (h ^ (v >> 48 & 0xff)) * fnvPrime
	h = (h ^ (v >> 56)) * fnvPrime
	return h
}
