package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

func relabelCheckData(n int, adj [][]bool) CanonData {
	return CanonData{
		N:           n,
		VertexBytes: func(dst []byte, v int) []byte { return append(dst, 'x') },
		PairBytes: func(dst []byte, u, v int) []byte {
			if adj[u][v] {
				return append(dst, '1')
			}
			return append(dst, '0')
		},
	}
}

func TestZZRelabelInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		n := 5 + rng.Intn(4)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					adj[i][j], adj[j][i] = true, true
				}
			}
		}
		_, enc0 := CanonicalOrder(relabelCheckData(n, adj))
		for rep := 0; rep < 5; rep++ {
			pi := rng.Perm(n)
			adj2 := make([][]bool, n)
			for i := range adj2 {
				adj2[i] = make([]bool, n)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					adj2[pi[i]][pi[j]] = adj[i][j]
				}
			}
			_, enc1 := CanonicalOrder(relabelCheckData(n, adj2))
			if !bytes.Equal(enc0, enc1) {
				t.Fatalf("trial %d rep %d: encodings differ for isomorphic graphs (n=%d)\nadj=%v\npi=%v", trial, rep, n, adj, pi)
			}
		}
	}
}

// pinnedGraphs is the corpus of TestCanonicalOrderPinned: random graphs
// and the vertex-transitive families (cycles, complete multipartite,
// hypercubes, the Petersen graph, unions of isomorphic components) on
// which the search tree is widest and automorphism pruning does its
// work.
func pinnedGraphs() []*Graph {
	var gs []*Graph
	for n := 5; n <= 12; n++ {
		for seed := int64(0); seed < 4; seed++ {
			gs = append(gs, Random(n, 0.3, seed), Random(n, 0.5, seed))
		}
		gs = append(gs, Cycle(n), Path(n), Star(n), Complete(n), Cycle(n).Complement())
		for r := 2; r <= 4 && r < n; r++ {
			gs = append(gs, CompleteMultipartite(BalancedParts(n, r)))
		}
	}
	for _, d := range []int{3, 4} {
		q := New(1 << d)
		for v := 0; v < 1<<d; v++ {
			for b := 0; b < d; b++ {
				if w := v ^ 1<<b; v < w {
					q.AddEdge(v, w)
				}
			}
		}
		gs = append(gs, q)
	}
	petersen := New(10)
	for i := 0; i < 5; i++ {
		petersen.AddEdge(i, (i+1)%5)
		petersen.AddEdge(i, i+5)
		petersen.AddEdge(i+5, (i+2)%5+5)
	}
	gs = append(gs, petersen, Cycle(5).DisjointUnion(Cycle(5)), Complete(4).DisjointUnion(Complete(4)).DisjointUnion(Complete(4)))
	return gs
}

// TestCanonicalOrderPinned pins CanonicalOrder's output — ordering and
// encoding — bit for bit over pinnedGraphs, each under three seeded
// relabelings. Canonical identity is a wire format (the qon and qoh
// fingerprints and the cache keys built on them), so a search change
// that alters either output, even to another valid canonical form,
// must fail here.
func TestCanonicalOrderPinned(t *testing.T) {
	const (
		wantCases  = 399
		wantDigest = "d3989ad20002ded6cdc6a69560efa54128e68534e015982957cb77284e551cc0"
	)
	h := sha256.New()
	cases := 0
	rng := rand.New(rand.NewSource(77))
	for _, g := range pinnedGraphs() {
		n := g.N()
		for rep := 0; rep < 3; rep++ {
			pi := rng.Perm(n)
			adj := make([][]bool, n)
			for i := range adj {
				adj[i] = make([]bool, n)
			}
			for _, e := range g.Edges() {
				adj[pi[e[0]]][pi[e[1]]], adj[pi[e[1]]][pi[e[0]]] = true, true
			}
			ord, enc := CanonicalOrder(relabelCheckData(n, adj))
			fmt.Fprintln(h, ord, enc)
			cases++
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); cases != wantCases || got != wantDigest {
		t.Fatalf("canonical order changed: %d cases, digest %s; pinned %d cases, digest %s",
			cases, got, wantCases, wantDigest)
	}
}
