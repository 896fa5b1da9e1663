package qon

import (
	"approxqo/internal/graph"
	"approxqo/internal/num"
)

// The one-pass instance decoder. decodeStrict scans the spelling
// MarshalJSON emits — the four keys exactly once each, in any order,
// with any JSON whitespace; the query graph as {"n": …, "edges": …}
// (edges a list of two-integer arrays, or null); every value a JSON
// string without escapes, parsed by (*num.Num).UnmarshalJSON exactly
// as encoding/json would call it — and builds the instance directly:
// no validity pre-pass, no reflection, matrix rows carved from one
// n×n backing array.
//
// It either decodes the instance encoding/json would decode from the
// same bytes, or declines. Anything outside that spelling declines:
// other key spellings (encoding/json matches keys case-insensitively
// and lets duplicates overwrite), unknown keys, null or bare-number
// values, escapes, numbers other than plain non-negative integers,
// edge arrays not of length two, ragged matrices, trailing bytes, and
// any value or graph the checks reject. UnmarshalJSON hands a declined
// input to encoding/json unchanged, so every such case keeps its
// existing result and error text.

// decodeStrict returns the instance data spells, or ok=false to decline.
func decodeStrict(data []byte) (in *Instance, ok bool) {
	s := scanner{b: data}
	if !s.lit('{') {
		return nil, false
	}
	const (
		hasQ = 1 << iota
		hasS
		hasT
		hasW
	)
	var (
		seen   int
		q      *graph.Graph
		n      int
		t      []num.Num
		sv, wv []num.Num // flat row-major matrices
		sr, wr int       // their row counts
	)
	for {
		key, ok := s.str()
		if !ok || !s.lit(':') {
			return nil, false
		}
		var bit int
		switch string(key) {
		case `"query_graph"`:
			bit = hasQ
			if q, ok = s.graph(len(data)); ok {
				n = q.N()
			}
		case `"selectivities"`:
			bit = hasS
			sv, sr, ok = s.matrix(n)
		case `"sizes"`:
			bit = hasT
			t, ok = s.values(n)
		case `"access_costs"`:
			bit = hasW
			wv, wr, ok = s.matrix(n)
		default:
			return nil, false
		}
		if !ok || seen&bit != 0 {
			return nil, false
		}
		seen |= bit
		if s.lit('}') {
			break
		}
		if !s.lit(',') {
			return nil, false
		}
	}
	s.ws()
	if s.i != len(s.b) || seen != hasQ|hasS|hasT|hasW ||
		len(t) != n || sr != n || wr != n || len(sv) != n*n || len(wv) != n*n {
		return nil, false
	}
	return &Instance{Q: q, T: t, S: squareRows(sv, n), W: squareRows(wv, n)}, true
}

// squareRows slices a flat row-major n×n matrix into its rows, each capped
// so no row can grow into the next.
func squareRows(flat []num.Num, n int) [][]num.Num {
	m := make([][]num.Num, n)
	for i := range m {
		m[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// scanner walks a JSON document; every method skips the whitespace
// before its token and reports false on anything but what it expects.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes the byte c.
func (s *scanner) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// null consumes the literal null.
func (s *scanner) null() bool {
	s.ws()
	if len(s.b)-s.i >= 4 && string(s.b[s.i:s.i+4]) == "null" {
		s.i += 4
		return true
	}
	return false
}

// str consumes a string without escapes or control bytes and returns
// it with its quotes — the token encoding/json hands an Unmarshaler.
func (s *scanner) str() ([]byte, bool) {
	s.ws()
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			tok := s.b[s.i : j+1]
			s.i = j + 1
			return tok, true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// uint consumes a non-negative integer in JSON's spelling (no leading
// zeros, no fraction or exponent) of at most nine digits.
func (s *scanner) uint() (int, bool) {
	s.ws()
	j, v := s.i, 0
	for j < len(s.b) && j-s.i < 10 && s.b[j] >= '0' && s.b[j] <= '9' {
		v = v*10 + int(s.b[j]-'0')
		j++
	}
	digits := j - s.i
	if digits == 0 || digits > 9 || (digits > 1 && s.b[s.i] == '0') {
		return 0, false
	}
	if j < len(s.b) {
		switch s.b[j] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	s.i = j
	return v, true
}

// value consumes one num string.
func (s *scanner) value(dst *num.Num) bool {
	tok, ok := s.str()
	return ok && dst.UnmarshalJSON(tok) == nil
}

// values consumes an array of num strings, reserving capacity for n.
func (s *scanner) values(n int) ([]num.Num, bool) {
	if !s.lit('[') {
		return nil, false
	}
	out := make([]num.Num, 0, n)
	if s.lit(']') {
		return out, true
	}
	for {
		out = append(out, num.Num{})
		if !s.value(&out[len(out)-1]) {
			return nil, false
		}
		if s.lit(']') {
			return out, true
		}
		if !s.lit(',') {
			return nil, false
		}
	}
}

// matrix consumes an array of equal-length arrays of num strings into
// one flat row-major slice, reserving n×n values when the query graph
// came first (as MarshalJSON orders it).
func (s *scanner) matrix(n int) (flat []num.Num, rowCount int, ok bool) {
	if !s.lit('[') {
		return nil, 0, false
	}
	flat = make([]num.Num, 0, n*n)
	if s.lit(']') {
		return flat, 0, true
	}
	width := -1
	for {
		if !s.lit('[') {
			return nil, 0, false
		}
		start := len(flat)
		if !s.lit(']') {
			for {
				flat = append(flat, num.Num{})
				if !s.value(&flat[len(flat)-1]) {
					return nil, 0, false
				}
				if s.lit(']') {
					break
				}
				if !s.lit(',') {
					return nil, 0, false
				}
			}
		}
		if w := len(flat) - start; width < 0 {
			width = w
		} else if w != width {
			return nil, 0, false
		}
		rowCount++
		if s.lit(']') {
			return flat, rowCount, true
		}
		if !s.lit(',') {
			return nil, 0, false
		}
	}
}

// graph consumes {"n": …, "edges": …} and builds the graph through
// graph.FromEdgeList. A vertex count whose two n×n matrices could not
// fit in a document of size docLen declines before anything is sized
// from it.
func (s *scanner) graph(docLen int) (*graph.Graph, bool) {
	if !s.lit('{') {
		return nil, false
	}
	n, hasN, hasEdges := 0, false, false
	var edges [][2]int
	for {
		key, ok := s.str()
		if !ok || !s.lit(':') {
			return nil, false
		}
		switch string(key) {
		case `"n"`:
			if hasN {
				return nil, false
			}
			hasN = true
			if n, ok = s.uint(); !ok || 6*n*n > docLen {
				return nil, false
			}
		case `"edges"`:
			if hasEdges {
				return nil, false
			}
			hasEdges = true
			if edges, ok = s.edges(); !ok {
				return nil, false
			}
		default:
			return nil, false
		}
		if s.lit('}') {
			break
		}
		if !s.lit(',') {
			return nil, false
		}
	}
	if !hasN || !hasEdges {
		return nil, false
	}
	g, err := graph.FromEdgeList(n, edges)
	return g, err == nil
}

// edges consumes null or an array of two-integer arrays.
func (s *scanner) edges() ([][2]int, bool) {
	if s.null() {
		return nil, true
	}
	if !s.lit('[') {
		return nil, false
	}
	var out [][2]int
	if s.lit(']') {
		return out, true
	}
	for {
		var e [2]int
		var ok bool
		if !s.lit('[') {
			return nil, false
		}
		if e[0], ok = s.uint(); !ok || !s.lit(',') {
			return nil, false
		}
		if e[1], ok = s.uint(); !ok || !s.lit(']') {
			return nil, false
		}
		out = append(out, e)
		if s.lit(']') {
			return out, true
		}
		if !s.lit(',') {
			return nil, false
		}
	}
}
