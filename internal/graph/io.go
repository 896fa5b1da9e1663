package graph

import (
	"encoding/json"
	"fmt"
	"strings"
)

// graphJSON is the serialized form of a Graph.
type graphJSON struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// MarshalJSON encodes g as {"n": ..., "edges": [[u,v], ...]}.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(graphJSON{N: g.n, Edges: g.Edges()})
}

// MaxJSONVertices bounds the vertex count UnmarshalJSON accepts:
// adjacency storage is Θ(n²) bits (32 MB at this limit), so an
// adversarial or corrupt "n" would otherwise allocate unboundedly
// before any edge is validated.
const MaxJSONVertices = 1 << 14

// UnmarshalJSON decodes the format MarshalJSON emits.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var gj graphJSON
	if err := json.Unmarshal(data, &gj); err != nil {
		return err
	}
	ng, err := FromEdgeList(gj.N, gj.Edges)
	if err != nil {
		return err
	}
	*g = *ng
	return nil
}

// FromEdgeList builds the graph on n vertices with the given edges,
// checking what a decoder must before trusting either: 0 ≤ n ≤
// MaxJSONVertices, endpoints in range, no self-loops. Duplicate edges
// are harmless. It is the one constructor behind every JSON decode of
// a graph.
func FromEdgeList(n int, edges [][2]int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > MaxJSONVertices {
		return nil, fmt.Errorf("graph: vertex count %d exceeds decode limit %d", n, MaxJSONVertices)
	}
	g := New(n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n || u == v {
			return nil, fmt.Errorf("graph: invalid edge {%d, %d} for n=%d", u, v, n)
		}
		g.AddEdge(u, v)
	}
	return g, nil
}

// DOT renders g in Graphviz DOT format.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s {\n", name)
	for v := 0; v < g.n; v++ {
		fmt.Fprintf(&b, "  v%d;\n", v)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  v%d -- v%d;\n", e[0], e[1])
	}
	b.WriteString("}\n")
	return b.String()
}
