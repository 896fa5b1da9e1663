package certify

import (
	"errors"
	"testing"

	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/qoh"
	"approxqo/internal/qon"
)

// testInstance builds a 3-relation clique with sizes 2, 4, 8, all
// selectivities ½, and access costs at the t·s lower bound — small
// enough to reason about every sequence cost by hand:
//
//	cost([0,1,2]) = 2·2 + 4·4  = 20   (the cheapest order)
//	cost([2,1,0]) = 8·2 + 16·1 = 32   (the dearest order)
func testInstance(t *testing.T) *qon.Instance {
	t.Helper()
	n := 3
	q := graph.Complete(n)
	in := &qon.Instance{Q: q, T: []num.Num{num.FromInt64(2), num.FromInt64(4), num.FromInt64(8)}}
	half := num.Pow2(-1)
	in.S = make([][]num.Num, n)
	in.W = make([][]num.Num, n)
	for i := 0; i < n; i++ {
		in.S[i] = make([]num.Num, n)
		in.W[i] = make([]num.Num, n)
		for j := 0; j < n; j++ {
			if i == j {
				in.S[i][j], in.W[i][j] = num.One(), in.T[i]
			} else {
				in.S[i][j], in.W[i][j] = half, in.T[i].Mul(half)
			}
		}
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("test instance invalid: %v", err)
	}
	return in
}

func TestQONCertifiesHonestResult(t *testing.T) {
	in := testInstance(t)
	seq := []int{0, 1, 2}
	cost := in.Cost(seq)
	cert, err := QON(in, seq, cost, false)
	if err != nil {
		t.Fatalf("honest result rejected: %v", err)
	}
	if !cert.Recomputed.Equal(cost) || !cert.Claimed.Equal(cost) {
		t.Fatalf("certificate costs disagree: %+v", cert)
	}
	if cert.Exact {
		t.Fatal("non-exact result certified as exact")
	}
}

// The recomputation must be bit-identical to the canonical cost model
// on every permutation, not just the cheap one.
func TestQONRecomputationMatchesCostModel(t *testing.T) {
	in := testInstance(t)
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, seq := range perms {
		if _, err := QON(in, seq, in.Cost(seq), false); err != nil {
			t.Errorf("sequence %v: %v", seq, err)
		}
	}
}

func TestQONRejectsInvalidPlans(t *testing.T) {
	in := testInstance(t)
	cost := in.Cost([]int{0, 1, 2})
	cases := []struct {
		name string
		seq  []int
	}{
		{"duplicate vertex", []int{0, 0, 2}},
		{"short", []int{0, 1}},
		{"out of range", []int{0, 1, 3}},
		{"nil", nil},
	}
	for _, c := range cases {
		if _, err := QON(in, c.seq, cost, false); !errors.Is(err, ErrInvalidPlan) {
			t.Errorf("%s: err = %v, want ErrInvalidPlan", c.name, err)
		}
	}
	// Unconstructed claimed cost.
	if _, err := QON(in, []int{0, 1, 2}, num.Num{}, false); !errors.Is(err, ErrInvalidPlan) {
		t.Errorf("zero-value cost: err = %v, want ErrInvalidPlan", err)
	}
	// Nil instance.
	if _, err := QON(nil, []int{0}, cost, false); !errors.Is(err, ErrInvalidPlan) {
		t.Errorf("nil instance: err = %v, want ErrInvalidPlan", err)
	}
}

func TestQONRejectsUnderstatedCost(t *testing.T) {
	in := testInstance(t)
	seq := []int{0, 1, 2}
	lied := in.Cost(seq).Mul(num.Pow2(-1))
	if _, err := QON(in, seq, lied, false); !errors.Is(err, ErrCostMismatch) {
		t.Fatalf("err = %v, want ErrCostMismatch", err)
	}
}

func TestQONRejectsFalseExactnessClaim(t *testing.T) {
	in := testInstance(t)
	worst := []int{2, 1, 0}
	cost := in.Cost(worst)
	// The same result is fine when it does not claim optimality...
	if _, err := QON(in, worst, cost, false); err != nil {
		t.Fatalf("non-exact worst order rejected: %v", err)
	}
	// ...but claiming exactness at 2^5 when a greedy witness costs 2^~4.3
	// is refuted by the bound.
	if _, err := QON(in, worst, cost, true); !errors.Is(err, ErrBoundViolated) {
		t.Fatalf("err = %v, want ErrBoundViolated", err)
	}
}

func TestQONAcceptsTrueExactnessClaim(t *testing.T) {
	in := testInstance(t)
	best := []int{0, 1, 2}
	cert, err := QON(in, best, in.Cost(best), true)
	if err != nil {
		t.Fatalf("true optimum rejected: %v", err)
	}
	if !cert.Exact || !cert.Bound.IsValid() {
		t.Fatalf("exact certificate missing bound: %+v", cert)
	}
	if cert.Bound.Less(cert.Recomputed) {
		t.Fatal("certificate bound below certified cost")
	}
}

func TestExactBestRejectsCheaperCertifiedRun(t *testing.T) {
	in := testInstance(t)
	best, worst := in.Cost([]int{0, 1, 2}), in.Cost([]int{2, 1, 0})
	// An exact-flagged winner costlier than another certified run of the
	// same report is refuted by that run.
	if err := ExactBest(worst, true, []num.Num{worst, best}); !errors.Is(err, ErrBoundViolated) {
		t.Fatalf("err = %v, want ErrBoundViolated", err)
	}
	// Ties and dearer runs do not refute; a non-exact winner is not a
	// claim at all.
	if err := ExactBest(best, true, []num.Num{best, worst, {}}); err != nil {
		t.Fatalf("true optimum rejected: %v", err)
	}
	if err := ExactBest(worst, false, []num.Num{best}); err != nil {
		t.Fatalf("non-exact winner rejected: %v", err)
	}
}

// qohInstance: 3-clique, all sizes 8, selectivity ½, memory 64.
func qohInstance(t *testing.T) *qoh.Instance {
	t.Helper()
	n := 3
	in := &qoh.Instance{Q: graph.Complete(n), T: make([]num.Num, n), M: num.FromInt64(64)}
	in.S = make([][]num.Num, n)
	for i := 0; i < n; i++ {
		in.T[i] = num.FromInt64(8)
		in.S[i] = make([]num.Num, n)
		for j := 0; j < n; j++ {
			if i == j {
				in.S[i][j] = num.One()
			} else {
				in.S[i][j] = num.Pow2(-1)
			}
		}
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("test instance invalid: %v", err)
	}
	return in
}

func TestQOHCertifiesHonestPlan(t *testing.T) {
	in := qohInstance(t)
	z := []int{0, 1, 2}
	plan, err := in.BestDecomposition(z)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := QOH(in, z, plan.Breaks, plan.Cost, false)
	if err != nil {
		t.Fatalf("honest plan rejected: %v", err)
	}
	if !cert.Recomputed.Equal(plan.Cost) {
		t.Fatal("recomputed cost disagrees with the plan's")
	}
}

func TestQOHRejectsCorruptedPlans(t *testing.T) {
	in := qohInstance(t)
	z := []int{0, 1, 2}
	plan, err := in.BestDecomposition(z)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := QOH(in, []int{0, 0, 2}, plan.Breaks, plan.Cost, false); !errors.Is(err, ErrInvalidPlan) {
		t.Errorf("duplicate vertex: err = %v, want ErrInvalidPlan", err)
	}
	for _, breaks := range [][]int{nil, {1}, {2, 1}, {1, 1, 2}, {3}} {
		if _, err := QOH(in, z, breaks, plan.Cost, false); !errors.Is(err, ErrInvalidPlan) {
			t.Errorf("breaks %v: err = %v, want ErrInvalidPlan", breaks, err)
		}
	}
	lied := plan.Cost.Mul(num.Pow2(-1))
	if _, err := QOH(in, z, plan.Breaks, lied, false); !errors.Is(err, ErrCostMismatch) {
		t.Errorf("understated cost: err = %v, want ErrCostMismatch", err)
	}
}

func TestQOHRejectsFalseExactnessClaim(t *testing.T) {
	in := qohInstance(t)
	best, err := in.ExactBest()
	if err != nil {
		t.Fatal(err)
	}
	// The true optimum certifies with its bound.
	if _, err := QOH(in, best.Z, best.Breaks, best.Cost, true); err != nil {
		t.Fatalf("true optimum rejected: %v", err)
	}
	// Find any strictly worse feasible decomposition and claim it exact.
	z := []int{0, 1, 2}
	for _, breaks := range [][]int{{2}, {1, 2}} {
		plan, err := in.CostDecomposition(z, breaks)
		if err != nil || !best.Cost.Less(plan.Cost) {
			continue
		}
		if _, err := QOH(in, z, breaks, plan.Cost, true); !errors.Is(err, ErrBoundViolated) {
			t.Fatalf("breaks %v: err = %v, want ErrBoundViolated", breaks, err)
		}
		return
	}
	t.Skip("no strictly suboptimal feasible decomposition on this instance")
}
