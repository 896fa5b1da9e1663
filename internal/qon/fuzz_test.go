package qon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"approxqo/internal/graph"
	"approxqo/internal/num"
)

// referenceInstanceJSON and referenceGraphJSON are the encoding/json
// decode path the instance decoder used before the one-pass scan, kept
// here as the differential reference: decodeReference must agree with
// UnmarshalJSON on every input.
type referenceInstanceJSON struct {
	Q *referenceGraphJSON `json:"query_graph"`
	S [][]num.Num         `json:"selectivities"`
	T []num.Num           `json:"sizes"`
	W [][]num.Num         `json:"access_costs"`
}

type referenceGraphJSON struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

func decodeReference(data []byte) (*Instance, error) {
	var ij referenceInstanceJSON
	if err := json.Unmarshal(data, &ij); err != nil {
		return nil, err
	}
	if ij.Q == nil {
		return nil, fmt.Errorf("qon: missing query graph")
	}
	gj := ij.Q
	if gj.N < 0 || gj.N > graph.MaxJSONVertices {
		return nil, fmt.Errorf("graph: bad vertex count %d", gj.N)
	}
	q := graph.New(gj.N)
	for _, e := range gj.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= gj.N || v < 0 || v >= gj.N || u == v {
			return nil, fmt.Errorf("graph: invalid edge {%d, %d} for n=%d", u, v, gj.N)
		}
		q.AddEdge(u, v)
	}
	in := &Instance{Q: q, S: ij.S, T: ij.T, W: ij.W}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// sameInstance reports whether two validated instances have the same
// n, edge set and values.
func sameInstance(a, b *Instance) bool {
	n := a.N()
	if b.N() != n || !a.Q.Equal(b.Q) {
		return false
	}
	for i := 0; i < n; i++ {
		if !a.T[i].Equal(b.T[i]) {
			return false
		}
		for j := 0; j < n; j++ {
			if !a.S[i][j].Equal(b.S[i][j]) || !a.W[i][j].Equal(b.W[i][j]) {
				return false
			}
		}
	}
	return true
}

// FuzzInstanceJSON checks that arbitrary JSON never panics the QO_N
// instance decoder (which validates on decode), that it agrees with
// the encoding/json reference on accept/reject and on every decoded
// value, and that accepted instances survive a marshal/unmarshal round
// trip; ScanInstance, on the input followed by other bytes, must agree
// with encoding/json on the object prefix. The decoder is called
// directly, without encoding/json's validity pre-pass, so malformed
// documents reach the one-pass scan.
func FuzzInstanceJSON(f *testing.F) {
	valid, err := json.Marshal(NewUniform(graph.Complete(3), num.FromInt64(4), num.Pow2(-1), num.FromInt64(2)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(valid))
	// Near-tie seed: the two orders of this instance differ in cost by a
	// relative 2^-71 — far inside DefaultLogGuard — so costing it through
	// the tiered kernel forces the Tier-1 exact fallback path.
	tie := &Instance{
		Q: graph.Complete(2),
		T: []num.Num{num.Pow2(30), num.Pow2(30)},
		S: [][]num.Num{
			{num.One(), num.Pow2(-1)},
			{num.Pow2(-1), num.One()},
		},
		W: [][]num.Num{
			{num.Pow2(30), num.Pow2(29).Add(num.Pow2(-71))},
			{num.Pow2(29), num.Pow2(30)},
		},
	}
	if err := tie.Validate(); err != nil {
		f.Fatal(err)
	}
	tieJSON, err := json.Marshal(tie)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(tieJSON))
	f.Add(`{}`)
	f.Add(`{"query_graph":{"n":2,"edges":[[0,1]]}}`)
	f.Add(`{"query_graph":{"n":2,"edges":[]},"sizes":["2","3"],"selectivities":[[null,null],[null,null]],"access_costs":[[null,null],[null,null]]}`)
	f.Add(`{"query_graph":{"n":1,"edges":[]},"sizes":["0"],"selectivities":[["1"]],"access_costs":[["1"]]}`)
	f.Add(`{"query_graph":{"n":2,"edges":[[0,1]]},"sizes":["2","2"],"selectivities":[["1","2"],["2","1"]],"access_costs":[["2","2"],["2","2"]]}`)
	f.Add(`[]`)
	f.Add(`null`)
	// Spellings outside the strict form, each taking the encoding/json
	// path: key case, key order, duplicates, null entries and edges,
	// bare numbers, a three-element edge, whitespace, trailing bytes.
	two := `{"query_graph":{"n":2,"edges":[[0,1]]},"selectivities":[["1","0x.8p+0"],["0x.8p+0","1"]],"sizes":["4","4"],"access_costs":[["4","2"],["2","4"]]}`
	for _, v := range []string{
		two,
		strings.Replace(two, `"sizes"`, `"Sizes"`, 1),
		strings.Replace(two, `"query_graph"`, `"Query_Graph"`, 1),
		strings.Replace(two, `"sizes"`, `"s\u0069zes"`, 1),
		`{"sizes":["4","4"],"access_costs":[["4","2"],["2","4"]],"selectivities":[["1","0x.8p+0"],["0x.8p+0","1"]],"query_graph":{"edges":[[1,0]],"n":2}}`,
		strings.Replace(two, `"sizes":["4","4"]`, `"sizes":["8","8"],"sizes":["4","4"]`, 1),
		strings.Replace(two, `"sizes":["4","4"]`, `"sizes":[null,"4"]`, 1),
		strings.Replace(two, `"edges":[[0,1]]`, `"edges":null`, 1),
		strings.Replace(two, `"sizes":["4","4"]`, `"sizes":[4,4]`, 1),
		strings.Replace(two, `[[0,1]]`, `[[0,1,1]]`, 1),
		strings.Replace(two, `[[0,1]]`, `[[0,1],[0,1]]`, 1),
		strings.Replace(two, `"n":2`, `"n":2.0`, 1),
		strings.Replace(two, `"1","0x.8p+0"`, `"1","0x.8p\u002b0"`, 1),
		" \t\n" + two + "\r\n ",
		two + `x`,
		two + `{}`,
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			return
		}
		// ScanInstance is a prefix decoder: whatever follows the object,
		// an instance it accepts, and the offset it reports as the
		// object's end, must agree with encoding/json on that prefix.
		for _, suffix := range []string{"", " ", "}", "]", `,"k":1}`, `x"`, "{}"} {
			data := []byte(input + suffix)
			got, end, ok := ScanInstance(data)
			if !ok {
				continue
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			var first json.RawMessage
			if err := dec.Decode(&first); err != nil || dec.InputOffset() != int64(end) {
				t.Fatalf("ScanInstance ended the object at %d, encoding/json at %d (err %v)", end, dec.InputOffset(), err)
			}
			ref, err := decodeReference(data[:end])
			if err != nil {
				t.Fatalf("ScanInstance accepted a prefix the encoding/json reference rejects: %v", err)
			}
			if !sameInstance(got, ref) {
				t.Fatal("ScanInstance and the encoding/json reference decoded different instances")
			}
		}
		var in Instance
		err := in.UnmarshalJSON([]byte(input))
		ref, refErr := decodeReference([]byte(input))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder and encoding/json reference disagree: err %v, reference err %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !sameInstance(&in, ref) {
			t.Fatal("decoder and encoding/json reference decoded different instances")
		}
		// An accepted instance is validated: it must be safe to cost a
		// trivial sequence and to re-encode.
		if err := in.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid instance: %v", err)
		}
		data, err := json.Marshal(&in)
		if err != nil {
			t.Fatalf("marshal of accepted instance: %v", err)
		}
		var back Instance
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("reparse of own output: %v", err)
		}
		if back.N() != in.N() {
			t.Fatalf("round trip changed n: %d -> %d", in.N(), back.N())
		}
		if n := in.N(); n > 0 && n <= 16 {
			seq := make(Sequence, n)
			rev := make(Sequence, n)
			for i := range seq {
				seq[i] = i
				rev[n-1-i] = i
			}
			cost := in.Cost(seq)
			if !cost.Equal(back.Cost(seq)) {
				t.Fatal("round trip changed the cost model")
			}
			// Differential: the log-domain ranking must agree with the
			// exact ordering on every accepted instance — including the
			// near-tie seed above, whose margin forces the exact fallback.
			lc := NewLogCoster(&in)
			if got, want := lc.Rank(seq, rev), cost.Cmp(in.Cost(rev)); got != want {
				t.Fatalf("Rank = %d, exact order %d", got, want)
			}
		}
	})
}
