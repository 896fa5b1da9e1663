// Package graph implements undirected graphs with the operations the
// hardness reductions need: complements, induced subgraphs, clique
// augmentation, connectivity, exact maximum clique, and generators for
// random and planted-clique graphs.
//
// Vertices are the integers 0..N-1. Graphs are mutable during
// construction; the reduction code treats them as immutable afterwards.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected simple graph on vertices 0..n-1 with bitset
// adjacency rows.
type Graph struct {
	n   int
	adj []*Bitset
}

// New returns an edgeless graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: New with negative vertex count")
	}
	// One slab for the rows and one for their words: a graph costs four
	// allocations whatever its size.
	g := &Graph{n: n, adj: make([]*Bitset, n)}
	rows := make([]Bitset, n)
	w := (n + 63) / 64
	words := make([]uint64, n*w)
	for i := range g.adj {
		rows[i] = Bitset{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
		g.adj[i] = &rows[i]
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge {u, v}. Self-loops are rejected.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	g.adj[u].Add(v)
	g.adj[v].Add(u)
}

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.adj[u].Remove(v)
	g.adj[v].Remove(u)
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	return g.adj[u].Has(v)
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return g.adj[v].Count() }

// MinDegree returns the smallest vertex degree, or 0 for the empty graph.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for v := 0; v < g.n; v++ {
		total += g.adj[v].Count()
	}
	return total / 2
}

// Edges returns all edges as ordered pairs (u < v), sorted.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		g.adj[u].ForEach(func(v int) {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		})
	}
	return out
}

// Neighbors returns a copy of v's adjacency set.
func (g *Graph) Neighbors(v int) *Bitset { return g.adj[v].Clone() }

// neighbors returns the internal adjacency row; callers must not mutate it.
func (g *Graph) neighbors(v int) *Bitset { return g.adj[v] }

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, adj: make([]*Bitset, g.n)}
	for i, row := range g.adj {
		c.adj[i] = row.Clone()
	}
	return c
}

// Equal reports whether g and o have identical vertex and edge sets.
func (g *Graph) Equal(o *Graph) bool {
	if g.n != o.n {
		return false
	}
	for i := range g.adj {
		if !g.adj[i].Equal(o.adj[i]) {
			return false
		}
	}
	return true
}

// Complement returns the complement graph: {u,v} is an edge iff it is not
// an edge of g.
func (g *Graph) Complement() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if !g.HasEdge(u, v) {
				c.AddEdge(u, v)
			}
		}
	}
	return c
}

// InducedSubgraph returns the subgraph induced by the given vertices,
// relabelled 0..len(vs)-1 in the given order. Duplicate vertices panic.
func (g *Graph) InducedSubgraph(vs []int) *Graph {
	sub := New(len(vs))
	seen := make(map[int]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			panic(fmt.Sprintf("graph: duplicate vertex %d in InducedSubgraph", v))
		}
		seen[v] = true
	}
	for i, u := range vs {
		for j := i + 1; j < len(vs); j++ {
			if g.HasEdge(u, vs[j]) {
				sub.AddEdge(i, j)
			}
		}
	}
	return sub
}

// EdgesWithin returns the number of edges of g whose endpoints both lie
// in the given vertex set.
func (g *Graph) EdgesWithin(set *Bitset) int {
	total := 0
	set.ForEach(func(v int) {
		total += g.adj[v].IntersectCount(set)
	})
	return total / 2
}

// IsClique reports whether the given vertices are pairwise adjacent.
func (g *Graph) IsClique(vs []int) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !g.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// IsConnected reports whether g is connected (the empty graph and the
// single-vertex graph count as connected).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	seen := NewBitset(g.n)
	stack := []int{0}
	seen.Add(0)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.adj[v].ForEach(func(u int) {
			if !seen.Has(u) {
				seen.Add(u)
				stack = append(stack, u)
			}
		})
	}
	return seen.Count() == g.n
}

// AugmentWithClique returns a new graph consisting of g plus k fresh
// vertices that form a clique among themselves and are adjacent to every
// vertex of g (the augmentation step of Lemmas 3 and 4). The original
// vertices keep their labels; new vertices are g.N()..g.N()+k-1.
func (g *Graph) AugmentWithClique(k int) *Graph {
	if k < 0 {
		panic("graph: AugmentWithClique with negative k")
	}
	out := New(g.n + k)
	for _, e := range g.Edges() {
		out.AddEdge(e[0], e[1])
	}
	for i := g.n; i < g.n+k; i++ {
		for j := 0; j < i; j++ {
			out.AddEdge(i, j)
		}
	}
	return out
}

// DisjointUnion returns the disjoint union of g and h; h's vertices are
// relabelled g.N()..g.N()+h.N()-1.
func (g *Graph) DisjointUnion(h *Graph) *Graph {
	out := New(g.n + h.n)
	for _, e := range g.Edges() {
		out.AddEdge(e[0], e[1])
	}
	for _, e := range h.Edges() {
		out.AddEdge(e[0]+g.n, e[1]+g.n)
	}
	return out
}

// String renders a short description, e.g. "graph(n=5, m=7)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.n, g.EdgeCount())
}

// DegreeSequence returns the sorted (descending) degree sequence.
func (g *Graph) DegreeSequence() []int {
	ds := make([]int, g.n)
	for v := range ds {
		ds[v] = g.Degree(v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ds)))
	return ds
}
