package opt

import (
	"math/rand"
	"testing"

	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/qon"
)

// propertyInstances is the generated-instance budget per invariant.
// The suites below are tier-1: they must stay well under 30s combined,
// so the randomized optimizers run with reduced search effort — the
// invariants hold regardless of how hard the search tries.
const propertyInstances = 200

// Property: every optimizer's claimed cost equals an independent
// qon.Cost recomputation of the sequence it returned, and the sequence
// is a valid permutation. This is the certification audit's core check,
// asserted here directly against every registered algorithm family.
func TestPropertyCostMatchesRecomputation(t *testing.T) {
	for i := 0; i < propertyInstances; i++ {
		seed := int64(i)
		n := 4 + i%5 // 4..8 relations
		in := randomInstance(n, 0.6, seed)
		optimizers := []Optimizer{
			NewDP(),
			NewGreedy(GreedyMinSize),
			NewGreedy(GreedyMinCost),
			NewAnnealing(WithSeed(seed), WithIterations(100)),
			NewIterativeImprovement(WithSeed(seed), WithRestarts(1)),
		}
		if in.Q.IsConnected() {
			// Cartesian-product-free orders only exist on connected graphs.
			optimizers = append(optimizers, NewDPNoCross())
		}
		for _, o := range optimizers {
			res, err := o.Optimize(ctx, in)
			if err != nil {
				t.Fatalf("instance %d: %s: %v", i, o.Name(), err)
			}
			if !in.ValidSequence(res.Sequence) {
				t.Fatalf("instance %d: %s returned invalid sequence %v", i, o.Name(), res.Sequence)
			}
			if recomputed := in.Cost(res.Sequence); !res.Cost.Equal(recomputed) {
				t.Fatalf("instance %d: %s claimed cost %v, recomputation gives %v",
					i, o.Name(), res.Cost, recomputed)
			}
		}
	}
}

// Property: the two exact DPs agree with plain exhaustive enumeration
// (exactOptimum) on every instance small enough for it — the subset DP
// and its parallel variant are exhaustive search in disguise.
func TestPropertyExactOptimizersAgree(t *testing.T) {
	for i := 0; i < propertyInstances; i++ {
		n := 4 + i%4 // 4..7: exhaustive stays at ≤ 5040 permutations
		in := randomInstance(n, 0.55, int64(1000+i))
		ex := exactOptimum(in)
		dp, err := NewDP().Optimize(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewDPParallel().Optimize(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if !dp.Cost.Equal(ex.Cost) {
			t.Fatalf("instance %d (n=%d): DP %v != exhaustive %v", i, n, dp.Cost, ex.Cost)
		}
		if !par.Cost.Equal(ex.Cost) {
			t.Fatalf("instance %d (n=%d): DPParallel %v != exhaustive %v", i, n, par.Cost, ex.Cost)
		}
		if !dp.Exact || !par.Exact {
			t.Fatalf("instance %d: exact optimizer did not flag its result exact", i)
		}
	}
}

// approxEqual compares costs up to a 2^-200 relative error: num works
// at 256-bit precision, and recomputing the same product across a
// relabeled instance can shift the final rounding by an ulp.
func approxEqual(a, b num.Num) bool {
	if a.Equal(b) {
		return true
	}
	hi, lo := a.Max(b), a.Min(b)
	return hi.Sub(lo).Mul(num.Pow2(200)).LessEq(hi)
}

// relabel returns the instance with relation i renamed to pi[i]: the
// same optimization problem under a different vertex numbering.
func relabel(in *qon.Instance, pi []int) *qon.Instance {
	n := in.N()
	q := graph.New(n)
	for _, e := range in.Q.Edges() {
		q.AddEdge(pi[e[0]], pi[e[1]])
	}
	out := &qon.Instance{Q: q, T: make([]num.Num, n), S: make([][]num.Num, n), W: make([][]num.Num, n)}
	for i := 0; i < n; i++ {
		out.S[i] = make([]num.Num, n)
		out.W[i] = make([]num.Num, n)
	}
	for i := 0; i < n; i++ {
		out.T[pi[i]] = in.T[i]
		for j := 0; j < n; j++ {
			out.S[pi[i]][pi[j]] = in.S[i][j]
			out.W[pi[i]][pi[j]] = in.W[i][j]
		}
	}
	return out
}

// Metamorphic: relabeling the relations by a random permutation leaves
// the optimal cost invariant — the optimum is a property of the
// instance, not of the vertex numbering the search happens to follow.
func TestPropertyRelabelOptimumInvariant(t *testing.T) {
	for i := 0; i < propertyInstances; i++ {
		n := 5 + i%3 // 5..7
		in := randomInstance(n, 0.6, int64(2000+i))
		if err := in.Validate(); err != nil {
			t.Fatalf("instance %d invalid: %v", i, err)
		}
		rng := rand.New(rand.NewSource(int64(3000 + i)))
		pi := rng.Perm(n)
		rel := relabel(in, pi)
		if err := rel.Validate(); err != nil {
			t.Fatalf("instance %d: relabeled instance invalid: %v", i, err)
		}
		orig, err := NewDP().Optimize(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		perm, err := NewDP().Optimize(ctx, rel)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEqual(orig.Cost, perm.Cost) {
			t.Fatalf("instance %d: optimum changed under relabeling %v: %v -> %v",
				i, pi, orig.Cost, perm.Cost)
		}
		// The witness sequences map onto each other: relabeling the
		// original optimum must cost exactly the relabeled optimum.
		mapped := make(qon.Sequence, n)
		for k, v := range orig.Sequence {
			mapped[k] = pi[v]
		}
		if got := rel.Cost(mapped); !approxEqual(got, perm.Cost) {
			t.Fatalf("instance %d: mapped witness costs %v, optimum is %v", i, got, perm.Cost)
		}
	}
}
