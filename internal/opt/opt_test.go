package opt

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/qon"
)

// ctx is the background context shared by tests that don't exercise
// cancellation.
var ctx = context.Background()

// randomInstance builds a random valid QO_N instance with edge access
// costs at their lower bound t·s (the regime the reductions use).
func randomInstance(n int, p float64, seed int64) *qon.Instance {
	rng := rand.New(rand.NewSource(seed))
	q := graph.Random(n, p, seed)
	in := &qon.Instance{Q: q, T: make([]num.Num, n)}
	for i := range in.T {
		in.T[i] = num.FromInt64(int64(rng.Intn(500) + 2))
	}
	in.S = make([][]num.Num, n)
	in.W = make([][]num.Num, n)
	for i := 0; i < n; i++ {
		in.S[i] = make([]num.Num, n)
		in.W[i] = make([]num.Num, n)
	}
	for i := 0; i < n; i++ {
		in.S[i][i] = num.One()
		in.W[i][i] = in.T[i]
		for j := 0; j < i; j++ {
			if q.HasEdge(i, j) {
				s := num.FromFloat64(float64(rng.Intn(15)+1) / 16)
				in.S[i][j], in.S[j][i] = s, s
				in.W[i][j] = in.T[i].Mul(s)
				in.W[j][i] = in.T[j].Mul(s)
			} else {
				in.S[i][j], in.S[j][i] = num.One(), num.One()
				in.W[i][j], in.W[j][i] = in.T[i], in.T[j]
			}
		}
	}
	return in
}

// treeInstance builds a random instance whose query graph is a tree.
func treeInstance(n int, seed int64) *qon.Instance {
	in := randomInstance(n, 0, seed) // start edgeless
	rng := rand.New(rand.NewSource(seed + 1))
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		in.Q.AddEdge(u, v)
		s := num.FromFloat64(float64(rng.Intn(15)+1) / 16)
		in.S[u][v], in.S[v][u] = s, s
		in.W[u][v] = in.T[u].Mul(s)
		in.W[v][u] = in.T[v].Mul(s)
	}
	return in
}

// Property: every heuristic returns a valid sequence costing at least
// the DP optimum, and BestOf picks the cheapest.
func TestQuickHeuristicsSound(t *testing.T) {
	prop := func(seed int64) bool {
		in := randomInstance(6, 0.8, seed)
		dp, err := NewDP().Optimize(ctx, in)
		if err != nil {
			return false
		}
		for _, o := range []Optimizer{
			NewGreedy(GreedyMinSize),
			NewGreedy(GreedyMinCost),
			NewAnnealing(WithSeed(seed), WithIterations(2000)),
			NewRandomSampler(WithSeed(seed), WithSamples(200)),
			NewIterativeImprovement(WithSeed(seed), WithRestarts(3)),
		} {
			r, err := o.Optimize(ctx, in)
			if err != nil {
				return false
			}
			if !in.ValidSequence(r.Sequence) || !in.Cost(r.Sequence).Equal(r.Cost) {
				return false
			}
			if r.Cost.Less(dp.Cost) {
				return false // heuristic beating a certified optimum is a bug
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// bruteConnectedOptimum finds the cheapest sequence without cartesian
// products by enumeration (reference for KBZ).
func bruteConnectedOptimum(in *qon.Instance) num.Num {
	n := in.N()
	perm := make(qon.Sequence, n)
	for i := range perm {
		perm[i] = i
	}
	var best num.Num
	found := false
	permute(perm, 0, func(z qon.Sequence) bool {
		if in.HasCartesianProduct(z) {
			return true
		}
		c := in.Cost(z)
		if !found || c.Less(best) {
			best, found = c, true
		}
		return true
	})
	return best
}

// KBZ must be exact among connected (no cartesian product) orders on
// tree query graphs — the classic Ibaraki–Kameda guarantee.
func TestKBZOptimalOnTrees(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		in := treeInstance(6, seed)
		r, err := NewKBZ().Optimize(ctx, in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if in.HasCartesianProduct(r.Sequence) {
			t.Fatalf("seed %d: KBZ sequence has a cartesian product", seed)
		}
		want := bruteConnectedOptimum(in)
		if !r.Cost.Equal(want) {
			t.Errorf("seed %d: KBZ cost 2^%.3f, connected optimum 2^%.3f",
				seed, r.Cost.Log2(), want.Log2())
		}
	}
}

func TestKBZOnCyclicGraphs(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		in := randomInstance(7, 0.9, seed)
		if !in.Q.IsConnected() {
			continue
		}
		r, err := NewKBZ().Optimize(ctx, in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !in.ValidSequence(r.Sequence) {
			t.Fatalf("seed %d: invalid sequence", seed)
		}
		dp, err := NewDP().Optimize(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cost.Less(dp.Cost) {
			t.Errorf("seed %d: heuristic beats certified optimum", seed)
		}
	}
}

func TestKBZDisconnectedErrors(t *testing.T) {
	in := randomInstance(6, 0, 30) // edgeless: disconnected
	if _, err := NewKBZ().Optimize(ctx, in); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestBestOf(t *testing.T) {
	in := randomInstance(6, 0.8, 42)
	r, winner, err := BestOf(ctx, in, append(Heuristics(WithSeed(7)), NewDP())...)
	if err != nil {
		t.Fatal(err)
	}
	if winner == "" || !in.ValidSequence(r.Sequence) {
		t.Fatal("BestOf malformed result")
	}
	dp, _ := NewDP().Optimize(ctx, in)
	if !r.Cost.Equal(dp.Cost) {
		t.Error("BestOf including DP should achieve the optimum")
	}
	// All failing: empty optimizer achieving nothing.
	if _, _, err := BestOf(ctx, in, DP{MaxN: 2}); err == nil {
		t.Error("BestOf with only failing optimizers should error")
	}
}
