package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// testStruct is a small weighted structure for exercising
// CanonicalOrder directly: an adjacency matrix with per-vertex and
// per-ordered-pair integer data.
type testStruct struct {
	n    int
	vert []int
	pair [][]int // pair[u][v], asymmetric
	adj  [][]bool
}

func (s *testStruct) data() CanonData {
	return CanonData{
		N: s.n,
		VertexBytes: func(dst []byte, v int) []byte {
			return fmt.Appendf(dst, "v%d", s.vert[v])
		},
		PairBytes: func(dst []byte, u, v int) []byte {
			e := 0
			if s.adj[u][v] {
				e = 1
			}
			return fmt.Appendf(dst, "e%d;%d;%d", e, s.pair[u][v], s.pair[v][u])
		},
	}
}

// permuted relabels s by pi: vertex v becomes pi[v].
func (s *testStruct) permuted(pi []int) *testStruct {
	t := &testStruct{n: s.n, vert: make([]int, s.n)}
	t.pair = make([][]int, s.n)
	t.adj = make([][]bool, s.n)
	for v := 0; v < s.n; v++ {
		t.pair[v] = make([]int, s.n)
		t.adj[v] = make([]bool, s.n)
	}
	for v := 0; v < s.n; v++ {
		t.vert[pi[v]] = s.vert[v]
		for u := 0; u < s.n; u++ {
			if u == v {
				continue
			}
			t.pair[pi[v]][pi[u]] = s.pair[v][u]
			t.adj[pi[v]][pi[u]] = s.adj[v][u]
		}
	}
	return t
}

func randomStruct(n int, rng *rand.Rand, valueRange int) *testStruct {
	s := &testStruct{n: n, vert: make([]int, n)}
	s.pair = make([][]int, n)
	s.adj = make([][]bool, n)
	for v := 0; v < n; v++ {
		s.pair[v] = make([]int, n)
		s.adj[v] = make([]bool, n)
		s.vert[v] = rng.Intn(valueRange)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(2) == 0 {
				s.adj[u][v], s.adj[v][u] = true, true
			}
			s.pair[u][v] = rng.Intn(valueRange)
			s.pair[v][u] = rng.Intn(valueRange)
		}
	}
	return s
}

func randomPerm(n int, rng *rand.Rand) []int {
	return rng.Perm(n)
}

func TestCanonicalOrderInvariantUnderRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(9)
		// Small value ranges force repeated colors and a real search;
		// large ranges make refinement discrete immediately. Cover both.
		valueRange := []int{2, 3, 100}[trial%3]
		s := randomStruct(n, rng, valueRange)
		_, enc := CanonicalOrder(s.data())
		for rep := 0; rep < 10; rep++ {
			pi := randomPerm(n, rng)
			_, enc2 := CanonicalOrder(s.permuted(pi).data())
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("trial %d rep %d: relabeled encoding differs (n=%d, range=%d)",
					trial, rep, n, valueRange)
			}
		}
	}
}

func TestCanonicalOrderDistinguishesNonIsomorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		s := randomStruct(n, rng, 3)
		// Mutate one pair value: the structures are no longer equal, and
		// with asymmetric pair data almost surely non-isomorphic; the
		// encodings must differ whenever they are.
		u, v := rng.Intn(n), rng.Intn(n)
		for u == v {
			v = rng.Intn(n)
		}
		m := s.permuted(identityPerm(n))
		m.pair[u][v] += 1000 // value outside the generator's range
		_, enc := CanonicalOrder(s.data())
		_, enc2 := CanonicalOrder(m.data())
		if bytes.Equal(enc, enc2) {
			t.Fatalf("trial %d: mutated structure has identical encoding", trial)
		}
	}
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// TestCanonicalOrderUniformClique exercises the twin-pruning path: a
// fully symmetric structure has n! relabelings but the search must
// collapse to a single path and still be invariant.
func TestCanonicalOrderUniformClique(t *testing.T) {
	n := 9
	s := &testStruct{n: n, vert: make([]int, n)}
	s.pair = make([][]int, n)
	s.adj = make([][]bool, n)
	for v := 0; v < n; v++ {
		s.pair[v] = make([]int, n)
		s.adj[v] = make([]bool, n)
		s.vert[v] = 7
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				s.adj[u][v] = true
				s.pair[u][v] = 5
			}
		}
	}
	_, enc := CanonicalOrder(s.data())
	rng := rand.New(rand.NewSource(63))
	for rep := 0; rep < 5; rep++ {
		_, enc2 := CanonicalOrder(s.permuted(randomPerm(n, rng)).data())
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("rep %d: uniform clique encoding not invariant", rep)
		}
	}
}

// TestCanonicalOrderIsValidPermutation checks the returned ordering is
// a permutation and that re-encoding the structure in that order
// reproduces the canonical bytes.
func TestCanonicalOrderIsValidPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	s := randomStruct(7, rng, 3)
	ord, enc := CanonicalOrder(s.data())
	if len(ord) != s.n {
		t.Fatalf("ord has %d entries, want %d", len(ord), s.n)
	}
	seen := make([]bool, s.n)
	for _, v := range ord {
		if v < 0 || v >= s.n || seen[v] {
			t.Fatalf("ord %v is not a permutation", ord)
		}
		seen[v] = true
	}
	// Rebuild the encoding directly from ord.
	d := s.data()
	var want []byte
	for k, v := range ord {
		want = d.VertexBytes(want, v)
		want = append(want, 0)
		for _, u := range ord[:k] {
			want = d.PairBytes(want, v, u)
			want = append(want, 0)
		}
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("encoding does not match re-serialization along ord")
	}
}

func TestCanonicalOrderEmptyAndSingle(t *testing.T) {
	ord, enc := CanonicalOrder(CanonData{N: 0})
	if len(ord) != 0 || len(enc) != 0 {
		t.Fatalf("empty structure: ord=%v enc=%q", ord, enc)
	}
	d := CanonData{
		N:           1,
		VertexBytes: func(dst []byte, _ int) []byte { return append(dst, 'x') },
		PairBytes:   func([]byte, int, int) []byte { panic("no pairs") },
	}
	ord, enc = CanonicalOrder(d)
	if len(ord) != 1 || ord[0] != 0 {
		t.Fatalf("single vertex: ord=%v", ord)
	}
	if !bytes.Equal(enc, []byte{'x', 0}) {
		t.Fatalf("single vertex enc=%q", enc)
	}
}

// circulant returns the circulant graph on n vertices joining i and
// i±s (mod n) for every s in jumps — vertex-transitive, so every search
// node has a wide cell and automorphisms to find.
func circulant(n int, jumps []int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for _, s := range jumps {
			if j := (i + s) % n; j != i && !g.HasEdge(i, j) {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// TestOrbitPruningIsExact checks that orbit pruning changes only the
// work, never the output: CanonicalOrder matches the search with orbit
// pruning off, ordering and encoding, on symmetric graphs (circulants,
// unions of copies of a random graph) and low-entropy weighted
// structures, each under random relabelings.
func TestOrbitPruningIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	check := func(name string, d CanonData) {
		t.Helper()
		ord, enc := CanonicalOrder(d)
		ord0, enc0 := canonicalOrder(d, 0)
		if !bytes.Equal(enc, enc0) || fmt.Sprint(ord) != fmt.Sprint(ord0) {
			t.Fatalf("%s: orbit pruning changed the result: ord %v vs %v", name, ord, ord0)
		}
	}
	adjOf := func(g *Graph, pi []int) [][]bool {
		n := g.N()
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for _, e := range g.Edges() {
			adj[pi[e[0]]][pi[e[1]]], adj[pi[e[1]]][pi[e[0]]] = true, true
		}
		return adj
	}
	for trial := 0; trial < 300; trial++ {
		n := 6 + rng.Intn(9)
		jumps := []int{1 + rng.Intn(n/2)}
		if rng.Intn(2) == 0 {
			jumps = append(jumps, 1+rng.Intn(n/2))
		}
		g := circulant(n, jumps)
		if rng.Intn(3) == 0 {
			h := Random(3+rng.Intn(3), 0.5, int64(trial))
			g = h.DisjointUnion(h)
			if rng.Intn(2) == 0 {
				g = g.DisjointUnion(h)
			}
		}
		check(fmt.Sprintf("graph trial %d", trial), relabelCheckData(g.N(), adjOf(g, rng.Perm(g.N()))))
		s := randomStruct(5+rng.Intn(6), rng, 2)
		check(fmt.Sprintf("struct trial %d", trial), s.permuted(randomPerm(s.n, rng)).data())
	}
}

// TestCanonicalOrderResultsOwnTheirMemory pins the pooled canonizer's
// lifetime rule: CanonicalOrder copies its results out of the slabs it
// recycles, so an ordering and encoding read the same after later
// calls of any size have reused those slabs.
func TestCanonicalOrderResultsOwnTheirMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	first := randomStruct(9, rng, 4)
	ord, enc := CanonicalOrder(first.data())
	wantOrd, wantEnc := append([]int(nil), ord...), bytes.Clone(enc)
	for _, n := range []int{9, 3, 14, 9, 1, 20} {
		CanonicalOrder(randomStruct(n, rng, 4).data())
	}
	if fmt.Sprint(ord) != fmt.Sprint(wantOrd) || !bytes.Equal(enc, wantEnc) {
		t.Fatalf("first result changed after later calls: ord %v enc %q, want %v %q", ord, enc, wantOrd, wantEnc)
	}
	if again, enc2 := CanonicalOrder(first.data()); fmt.Sprint(again) != fmt.Sprint(wantOrd) || !bytes.Equal(enc2, wantEnc) {
		t.Fatal("a recycled canonizer changed the result of a repeated call")
	}
}

// codes returns RefineColors' inputs for s: vertex codes and pair
// codes, each a label-invariant function of the data.
func (s *testStruct) codes() (vh, pc []uint64) {
	vh, pc = make([]uint64, s.n), make([]uint64, s.n*s.n)
	for v := range vh {
		vh[v] = fnvU64(fnvOffset, uint64(s.vert[v]))
		for u := 0; u < s.n; u++ {
			e := uint64(0)
			if s.adj[v][u] {
				e = 1
			}
			pc[v*s.n+u] = fnvU64(fnvU64(fnvU64(fnvOffset, e), uint64(s.pair[v][u])), uint64(s.pair[u][v]))
		}
	}
	return vh, pc
}

// RefineColors is label-invariant — relabeled inputs get the colors of
// their preimages, and the same discreteness — discrete on weighted
// structures, and never discrete on a uniform clique.
func TestRefineColors(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	discrete := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		s := randomStruct(n, rng, 2+rng.Intn(1000))
		pi := rng.Perm(n)
		colors, relColors := make([]uint64, n), make([]uint64, n)
		vh, pc := s.codes()
		ok := RefineColors(colors, vh, pc)
		vh, pc = s.permuted(pi).codes()
		if relOK := RefineColors(relColors, vh, pc); relOK != ok {
			t.Fatalf("trial %d: discrete %v, relabeled %v", trial, ok, relOK)
		}
		for v, p := range pi {
			if colors[v] != relColors[p] {
				t.Fatalf("trial %d: vertex %d has color %x, its image %x", trial, v, colors[v], relColors[p])
			}
		}
		if ok {
			discrete++
		}
	}
	if discrete < 150 {
		t.Fatalf("only %d of 300 random structures refined discretely", discrete)
	}
	for _, n := range []int{2, 5, 9} {
		u := randomStruct(n, rng, 1) // every value 0: only the edges differ
		for a := range u.adj {
			for b := range u.adj[a] {
				u.adj[a][b] = a != b
			}
		}
		vh, pc := u.codes()
		if RefineColors(make([]uint64, n), vh, pc) {
			t.Fatalf("uniform clique n=%d refined discretely", n)
		}
	}
	if !RefineColors(nil, nil, nil) {
		t.Fatal("the empty structure is discrete")
	}
}
