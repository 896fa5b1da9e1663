package opt

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"

	"approxqo/internal/cliquered"
	"approxqo/internal/core"
	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/qon"
	"approxqo/internal/stats"
	"approxqo/internal/workload"
)

// The greedy tier's exact oracles: greedy and KBZ with every
// comparison made in exact arithmetic. The production members rank in
// log₂ and must return the same sequence and a bit-identical cost on
// every instance.

// exactGreedy is Greedy with exact step keys N(X)·factor or N(X)·min W
// and an exact cost per start.
func exactGreedy(in *qon.Instance, rule GreedyRule) *Result {
	n := in.N()
	var best *Result
	for first := 0; first < n; first++ {
		z := exactGreedyFrom(in, rule, first)
		if c := in.Cost(z); best == nil || c.Less(best.Cost) {
			best = &Result{Sequence: z, Cost: c}
		}
	}
	return best
}

func exactGreedyFrom(in *qon.Instance, rule GreedyRule, first int) qon.Sequence {
	n := in.N()
	z := make(qon.Sequence, 0, n)
	x := graph.NewBitset(n)
	size, factor, key, pickKey := num.NewScratch(), num.NewScratch(), num.NewScratch(), num.NewScratch()
	defer size.Release()
	defer factor.Release()
	defer key.Release()
	defer pickKey.Release()
	in.ExtendInto(factor, first, x)
	size.SetInt64(1).MulScratch(factor)
	z = append(z, first)
	x.Add(first)
	for len(z) < n {
		pick, pickConnected := -1, false
		for v := 0; v < n; v++ {
			if x.Has(v) {
				continue
			}
			connected := in.Q.Neighbors(v).IntersectCount(x) > 0
			if pick >= 0 && pickConnected && !connected {
				continue
			}
			key.SetScratch(size)
			if rule == GreedyMinSize {
				in.ExtendInto(factor, v, x)
				key.MulScratch(factor)
			} else {
				key.Mul(in.MinW(v, x))
			}
			if pick < 0 || (connected && !pickConnected) || key.CmpScratch(pickKey) < 0 {
				pick, pickConnected = v, connected
				pickKey.SetScratch(key)
			}
		}
		in.ExtendInto(factor, pick, x)
		size.MulScratch(factor)
		z = append(z, pick)
		x.Add(pick)
	}
	return z
}

// exactModule is an ASI chain element carrying its exact (C, T).
type exactModule struct {
	c, t  *big.Float
	verts []int
}

func exactFuse(m1, m2 *exactModule) *exactModule {
	c := new(big.Float).SetPrec(num.Prec).Mul(m1.t, m2.c)
	c.Add(c, m1.c)
	t := new(big.Float).SetPrec(num.Prec).Mul(m1.t, m2.t)
	return &exactModule{c: c, t: t, verts: append(append([]int(nil), m1.verts...), m2.verts...)}
}

func exactRankLess(m1, m2 *exactModule) bool {
	one := new(big.Float).SetPrec(num.Prec).SetInt64(1)
	l := new(big.Float).SetPrec(num.Prec).Sub(m1.t, one)
	l.Mul(l, m2.c)
	r := new(big.Float).SetPrec(num.Prec).Sub(m2.t, one)
	r.Mul(r, m1.c)
	return l.Cmp(r) < 0
}

func exactMergeByRank(a, b []*exactModule) []*exactModule {
	out := make([]*exactModule, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if exactRankLess(b[j], a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// exactKBZ is KBZ with exact module ranks, the spanning tree on
// in.S[u][v].Log2() and an exact cost per root. The query graph must
// be connected and n ≥ 2.
func exactKBZ(in *qon.Instance) *Result {
	n := in.N()
	tree := in.Q
	if in.Q.EdgeCount() != n-1 {
		tree = graph.New(n)
		inTree := make([]bool, n)
		inTree[0] = true
		for count := 1; count < n; count++ {
			bestU, bestV, bestW := -1, -1, 0.0
			for u := 0; u < n; u++ {
				for v := 0; inTree[u] && v < n; v++ {
					if inTree[v] || !in.Q.HasEdge(u, v) {
						continue
					}
					if w := in.S[u][v].Log2(); bestU < 0 || w < bestW {
						bestU, bestV, bestW = u, v, w
					}
				}
			}
			tree.AddEdge(bestU, bestV)
			inTree[bestV] = true
		}
	}
	var best *Result
	for root := 0; root < n; root++ {
		z := exactKBZSequence(in, tree, root)
		if c := in.Cost(z); best == nil || c.Less(best.Cost) {
			best = &Result{Sequence: z, Cost: c}
		}
	}
	return best
}

func exactKBZSequence(in *qon.Instance, tree *graph.Graph, root int) qon.Sequence {
	n := in.N()
	parent := make([]int, n)
	children := make([][]int, n)
	visited := make([]bool, n)
	visited[root] = true
	for queue := []int{root}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		tree.Neighbors(v).ForEach(func(u int) {
			if !visited[u] {
				visited[u] = true
				parent[u] = v
				children[v] = append(children[v], u)
				queue = append(queue, u)
			}
		})
	}
	var chainOf func(v int) []*exactModule
	chainOf = func(v int) []*exactModule {
		var merged []*exactModule
		for _, ch := range children[v] {
			merged = exactMergeByRank(merged, chainOf(ch))
		}
		if v == root {
			return merged
		}
		p := parent[v]
		head := &exactModule{c: in.W[v][p].Float(), t: in.T[v].Mul(in.S[v][p]).Float(), verts: []int{v}}
		chain := append([]*exactModule{head}, merged...)
		for len(chain) >= 2 && !exactRankLess(chain[0], chain[1]) {
			chain = append([]*exactModule{exactFuse(chain[0], chain[1])}, chain[2:]...)
		}
		return chain
	}
	seq := qon.Sequence{root}
	for _, m := range chainOf(root) {
		seq = append(seq, m.verts...)
	}
	return seq
}

// greedyTierCase is one differential instance.
type greedyTierCase struct {
	name string
	in   *qon.Instance
}

// greedyTierCases returns every workload family at n 2–16 over the
// competitive-ratio harness's seeds (0–7), both cliquered promise
// pairs as f_N hardness instances, and an all-equal uniform clique.
func greedyTierCases(t *testing.T) (cases []greedyTierCase, cliquePairs []greedyTierCase) {
	t.Helper()
	for _, family := range workload.Families() {
		for n := 2; n <= 16; n++ {
			for seed := int64(0); seed < 8; seed++ {
				spec := &workload.Spec{Shape: string(family), N: n, Seed: seed}
				if spec.Validate() != nil {
					continue
				}
				in, err := spec.Generate()
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", family, n, seed, err)
				}
				cases = append(cases, greedyTierCase{fmt.Sprintf("%s/n=%d/seed=%d", family, n, seed), in})
			}
		}
	}
	for _, pair := range []struct {
		n    int
		c, d float64
	}{{12, 0.75, 0.25}, {12, 0.75, 0.5}} {
		yes, no := cliquered.YesNoPair(pair.n, pair.c, pair.d)
		params := core.FNParams{A: 4, OmegaYes: yes.Omega, OmegaNo: no.Omega}
		for side, g := range map[string]*cliquered.Certified{"yes": &yes, "no": &no} {
			fn, err := core.FN(g.G, params)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("cliquered(%d,%g,%g)/%s", pair.n, pair.c, pair.d, side)
			cliquePairs = append(cliquePairs, greedyTierCase{name, fn.QON})
		}
	}
	uniform := qon.NewUniform(graph.Complete(10), num.FromInt64(1000), num.FromFloat64(0.1), num.FromInt64(300))
	cases = append(cases, greedyTierCase{"uniform-clique/n=10", uniform})
	return append(cases, cliquePairs...), cliquePairs
}

func canonicalCost(c num.Num) []byte { return c.CanonicalAppend(nil) }

// TestGreedyTierMatchesExactOracle is the greedy tier's differential:
// greedy-min-size, greedy-min-cost and kbz rank in log₂ and fall back
// to exact arithmetic inside the guard band, and must return exactly
// the oracle's sequence and a bit-identical cost. On the f_N hardness
// pairs, whose costs tie everywhere, the fallback must fire.
func TestGreedyTierMatchesExactOracle(t *testing.T) {
	cases, cliquePairs := greedyTierCases(t)
	pair := map[string]bool{}
	for _, c := range cliquePairs {
		pair[c.name] = true
	}
	type member struct {
		opt    Optimizer
		oracle func(*qon.Instance) *Result
	}
	members := []member{
		{NewGreedy(GreedyMinSize), func(in *qon.Instance) *Result { return exactGreedy(in, GreedyMinSize) }},
		{NewGreedy(GreedyMinCost), func(in *qon.Instance) *Result { return exactGreedy(in, GreedyMinCost) }},
		{NewKBZ(), exactKBZ},
	}
	for _, c := range cases {
		for _, m := range members {
			if m.opt.Name() == "kbz" && !c.in.Q.IsConnected() {
				continue
			}
			st := &stats.Stats{}
			got, err := m.opt.Optimize(ctx, c.in.WithStats(st))
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, m.opt.Name(), err)
			}
			want := m.oracle(c.in)
			if fmt.Sprint(got.Sequence) != fmt.Sprint(want.Sequence) {
				t.Errorf("%s %s: sequence %v, exact oracle %v", c.name, m.opt.Name(), got.Sequence, want.Sequence)
			}
			if !bytes.Equal(canonicalCost(got.Cost), canonicalCost(want.Cost)) {
				t.Errorf("%s %s: cost %v, exact oracle %v", c.name, m.opt.Name(), got.Cost, want.Cost)
			}
			if pair[c.name] && st.Snapshot().Fallbacks == 0 {
				t.Errorf("%s %s: no guard-band fallback on a hardness instance", c.name, m.opt.Name())
			}
		}
	}
}
