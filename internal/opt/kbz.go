package opt

import (
	"context"
	"fmt"
	"math"
	"math/big"

	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/qon"
)

// KBZ implements the Ibaraki–Kameda rank algorithm ([1] in the paper;
// popularized as KBZ by Krishnamurthy–Boral–Zaniolo [6]) for tree query
// graphs under the QO_N cost model, which satisfies the adjacent
// sequence interchange (ASI) property: for a fixed first relation,
// appending relation v with parent p costs C_v = W[v][p] per outer tuple
// and multiplies the intermediate size by T_v = t_v·s_vp, so sequences
// are ordered optimally by the rank (T_v − 1)/C_v subject to tree
// precedence — solvable in polynomial time by chain normalization and
// rank merging, trying each relation as the root.
//
// On cyclic query graphs it falls back to a maximum-selectivity spanning
// tree (the classic heuristic): ranks are computed on the tree, but the
// final sequence is costed on the true instance.
type KBZ struct {
	cfg options
}

// NewKBZ returns the KBZ optimizer. Relevant options: WithStats.
func NewKBZ(opts ...Option) KBZ {
	return KBZ{cfg: buildOptions(opts)}
}

// Name implements Optimizer.
func (KBZ) Name() string { return "kbz" }

// Optimize implements Optimizer. It errors on disconnected query
// graphs. Anytime: cancellation between roots returns the best
// sequence found so far.
func (k KBZ) Optimize(ctx context.Context, in *qon.Instance) (*Result, error) {
	n := in.N()
	if n == 0 {
		return nil, fmt.Errorf("opt: empty instance")
	}
	in = k.cfg.instrument(in)
	if n == 1 {
		return &Result{Sequence: qon.Sequence{0}, Cost: num.Zero()}, nil
	}
	if !in.Q.IsConnected() {
		return nil, fmt.Errorf("opt: kbz requires a connected query graph")
	}
	r := newKBZRun(in)
	if in.Q.EdgeCount() != n-1 {
		r.tree = maxSelectivitySpanningTree(in, r.lc)
	}
	best := incumbent{in: in, lc: r.lc}
	for root := 0; root < n; root++ {
		if best.z != nil && cancelled(ctx) {
			break
		}
		best.offer(r.sequence(root))
	}
	return best.result(), nil
}

// kbzSignLog2 is the smallest |log₂ T| from which a module's float64
// log₂ T is trusted to give the sign of T−1 and log₂|T−1|: the float
// error of log₂ T reaches log₂|T−1| amplified by 2^lt/(2^lt−1), at most
// 6.3× at |lt| = ¼. Modules with T closer to 1 (key–foreign-key joins
// make T = 1 exactly) are ranked in exact arithmetic.
const kbzSignLog2 = 0.25

// module is a compound element of an ASI chain: a leaf (relation v
// joined to its tree parent p, with C = W[v][p] and T = t_v·s_vp) or
// the fusion of a followed by b (C = C_a + T_a·C_b, T = T_a·T_b). Ranks
// are compared on the float64 log₂ shadows; the exact (C, T) exist only
// for modules a comparison inside the guard band has needed, derived
// through the fuse tree in the rounding order of an all-exact run and
// memoized.
type module struct {
	logC, logT float64
	c, t       *big.Float // exact C and T; nil until needed
	v, p       int        // leaf
	a, b       *module    // fused; nil for a leaf
}

// kbzRun is one Optimize call's state, reused across the n roots.
type kbzRun struct {
	in       *qon.Instance
	lc       *qon.LogCoster
	tree     *graph.Graph
	parent   []int
	children [][]int
	queue    []int
	mods     []module // n−1 leaves and at most n−2 fusions per root
	seq      qon.Sequence
	one      *big.Float // rankCmp's constant and scratch, made on first use
	lhs, rhs *big.Float
}

func newKBZRun(in *qon.Instance) *kbzRun {
	n := in.N()
	return &kbzRun{
		in:       in,
		lc:       qon.NewLogCoster(in),
		tree:     in.Q,
		parent:   make([]int, n),
		children: make([][]int, n),
		queue:    make([]int, 0, n),
		mods:     make([]module, 0, 2*n),
		seq:      make(qon.Sequence, 0, n),
	}
}

func (r *kbzRun) newModule() *module {
	r.mods = append(r.mods, module{})
	return &r.mods[len(r.mods)-1]
}

func (r *kbzRun) leaf(v, p int) *module {
	m := r.newModule()
	m.v, m.p = v, p
	m.logC = r.lc.LogW(v, p)
	m.logT = r.lc.LogT(v) + r.lc.LogS(v, p)
	return m
}

// fuse absorbs b after a.
func (r *kbzRun) fuse(a, b *module) *module {
	m := r.newModule()
	m.a, m.b = a, b
	m.logC = qon.LogAdd(a.logC, a.logT+b.logC)
	m.logT = a.logT + b.logT
	return m
}

// exact derives m's exact (C, T), memoized.
func (r *kbzRun) exact(m *module) {
	if m.c != nil {
		return
	}
	if m.a == nil {
		m.c = r.in.W[m.v][m.p].Float()
		m.t = r.in.T[m.v].Mul(r.in.S[m.v][m.p]).Float()
		return
	}
	r.exact(m.a)
	r.exact(m.b)
	c := new(big.Float).SetPrec(num.Prec).Mul(m.a.t, m.b.c)
	m.c = c.Add(c, m.a.c)
	m.t = new(big.Float).SetPrec(num.Prec).Mul(m.a.t, m.b.t)
}

// rankCmp compares rank(m1) with rank(m2) exactly, rank = (T−1)/C with
// C > 0, cross-multiplied to avoid division: (T1−1)·C2 vs (T2−1)·C1.
// Modules with equal (C, T) tie without the products, which the tied
// f_N instances meet at almost every comparison.
func (r *kbzRun) rankCmp(m1, m2 *module) int {
	r.exact(m1)
	r.exact(m2)
	if m1.c.Cmp(m2.c) == 0 && m1.t.Cmp(m2.t) == 0 {
		return 0
	}
	if r.one == nil {
		r.one = new(big.Float).SetPrec(num.Prec).SetInt64(1)
		r.lhs = new(big.Float).SetPrec(num.Prec)
		r.rhs = new(big.Float).SetPrec(num.Prec)
	}
	l := r.lhs.Sub(m1.t, r.one)
	l.Mul(l, m2.c)
	rr := r.rhs.Sub(m2.t, r.one)
	rr.Mul(rr, m1.c)
	return l.Cmp(rr)
}

// rankLess reports rank(m1) < rank(m2). The float64 path reads the
// signs of T1−1 and T2−1 off log₂ T; equal signs compare
// log₂|T1−1| + log₂ C2 against log₂|T2−1| + log₂ C1 under CmpLog2.
func (r *kbzRun) rankLess(m1, m2 *module) bool {
	s1, s2 := logSign(m1.logT), logSign(m2.logT)
	if s1 == 0 || s2 == 0 {
		r.in.Stats().Fallback()
		return r.rankCmp(m1, m2) < 0
	}
	if s1 != s2 {
		return s1 < s2
	}
	a := log2AbsTMinus1(m1.logT) + m2.logC
	b := log2AbsTMinus1(m2.logT) + m1.logC
	if s1 < 0 {
		// Both products are negative: the larger magnitude is the
		// smaller value.
		a, b = b, a
	}
	return qon.CmpLog2(r.in.Stats(), a, b, func() int { return r.rankCmp(m1, m2) }) < 0
}

// logSign returns the sign of T−1 given lt = log₂ T, or 0 when lt is
// too close to 0 to tell (see kbzSignLog2).
func logSign(lt float64) int {
	switch {
	case lt >= kbzSignLog2:
		return 1
	case lt <= -kbzSignLog2:
		return -1
	}
	return 0
}

// log2AbsTMinus1 returns log₂|T−1| given lt = log₂ T, |lt| ≥ kbzSignLog2:
// max(lt, 0) + log₂(1 − 2^−|lt|).
func log2AbsTMinus1(lt float64) float64 {
	return math.Max(lt, 0) + math.Log1p(-math.Exp2(-math.Abs(lt)))/math.Ln2
}

// sequence computes the IK-optimal topological order of the tree
// rooted at root (parent precedes child) and returns it as a sequence
// starting with root. The slice is reused by the next call.
func (r *kbzRun) sequence(root int) qon.Sequence {
	parent, children := r.parent, r.children
	for v := range parent {
		parent[v] = -1
		children[v] = children[v][:0]
	}
	// BFS orientation.
	queue := append(r.queue[:0], root)
	parent[root] = root
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		r.tree.Neighbors(v).ForEach(func(u int) {
			if parent[u] < 0 {
				parent[u] = v
				children[v] = append(children[v], u)
				queue = append(queue, u)
			}
		})
	}

	r.mods = r.mods[:0]
	var chainOf func(v int) []*module
	chainOf = func(v int) []*module {
		var merged []*module
		for _, ch := range children[v] {
			merged = r.mergeByRank(merged, chainOf(ch))
		}
		if v == root {
			return merged // the root itself is not a join operation
		}
		chain := append([]*module{r.leaf(v, parent[v])}, merged...)
		// Normalize: a parent module whose rank exceeds its successor's
		// must be fused with it (ASI's sequencing argument).
		for len(chain) >= 2 && !r.rankLess(chain[0], chain[1]) {
			chain[1] = r.fuse(chain[0], chain[1])
			chain = chain[1:]
		}
		return chain
	}

	seq := append(r.seq[:0], root)
	var emit func(m *module)
	emit = func(m *module) {
		if m.a == nil {
			seq = append(seq, m.v)
			return
		}
		emit(m.a)
		emit(m.b)
	}
	for _, m := range chainOf(root) {
		emit(m)
	}
	r.seq = seq
	return seq
}

// mergeByRank merges two rank-ascending module chains.
func (r *kbzRun) mergeByRank(a, b []*module) []*module {
	out := make([]*module, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if r.rankLess(b[j], a[i]) {
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

// maxSelectivitySpanningTree builds a spanning tree of the query graph
// preferring the most selective edges (smallest s) — Prim's algorithm
// on the run's precomputed log₂ s weights.
func maxSelectivitySpanningTree(in *qon.Instance, lc *qon.LogCoster) *graph.Graph {
	n := in.N()
	tree := graph.New(n)
	inTree := make([]bool, n)
	inTree[0] = true
	for count := 1; count < n; count++ {
		bestU, bestV := -1, -1
		bestW := 0.0
		for u := 0; u < n; u++ {
			if !inTree[u] {
				continue
			}
			for v := 0; v < n; v++ {
				if inTree[v] || !in.Q.HasEdge(u, v) {
					continue
				}
				w := lc.LogS(u, v)
				if bestU < 0 || w < bestW {
					bestU, bestV, bestW = u, v, w
				}
			}
		}
		if bestU < 0 {
			panic("opt: spanning tree on disconnected graph")
		}
		tree.AddEdge(bestU, bestV)
		inTree[bestV] = true
	}
	return tree
}
