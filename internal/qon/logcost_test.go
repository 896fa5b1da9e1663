package qon

import (
	"math"
	"math/rand"
	"testing"

	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/stats"
)

// Differential: the float64 log₂ cost tracks the exact cost to far
// inside DefaultLogGuard on random instances — the bound the guard-band
// safety argument rests on.
func TestLogCosterTracksExactCost(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		n := 4 + int(seed)%6 // 4..9
		in := randomInstance(n, seed)
		lc := NewLogCoster(in)
		rng := rand.New(rand.NewSource(seed ^ 0x7e))
		for trial := 0; trial < 5; trial++ {
			z := Sequence(rng.Perm(n))
			want := in.Cost(z).Log2()
			if got := lc.CostLog2(z); math.Abs(got-want) > 1e-9 {
				t.Fatalf("seed %d: CostLog2(%v) = %v, exact log₂ = %v", seed, z, got, want)
			}
		}
	}
}

// Differential: Rank must order sequence pairs exactly as the exact
// costs do, across the metamorphic generator's transforms (relabeling
// permutes the instance, scaling shifts every magnitude) — decisive
// margins via float64, near-ties via the exact fallback.
func TestLogCosterRankMatchesExactOrder(t *testing.T) {
	check := func(in *Instance, rng *rand.Rand, what string) {
		t.Helper()
		lc := NewLogCoster(in)
		n := in.N()
		for trial := 0; trial < 6; trial++ {
			a, b := Sequence(rng.Perm(n)), Sequence(rng.Perm(n))
			want := in.Cost(a).Cmp(in.Cost(b))
			if got := lc.Rank(a, b); got != want {
				t.Fatalf("%s: Rank(%v, %v) = %d, exact order %d", what, a, b, got, want)
			}
		}
	}
	for seed := int64(0); seed < 30; seed++ {
		n := 4 + int(seed)%5 // 4..8
		in := randomInstance(n, seed)
		rng := rand.New(rand.NewSource(seed ^ 0x51))
		check(in, rng, "base")
		check(relabeled(in, rng.Perm(n)), rng, "relabeled")
		check(scaled(in, num.Pow2(64)), rng, "scaled")
	}
}

// Rank on the same sequence is an exact tie: the margin is zero, inside
// the band, and the fallback must report equality.
func TestLogCosterRankExactTie(t *testing.T) {
	st := &stats.Stats{}
	in := randomInstance(6, 3).WithStats(st)
	lc := NewLogCoster(in)
	z := Sequence{3, 1, 5, 0, 2, 4}
	if got := lc.Rank(z, z); got != 0 {
		t.Fatalf("Rank(z, z) = %d, want 0", got)
	}
	if snap := st.Snapshot(); snap.Fallbacks == 0 {
		t.Fatal("exact tie did not take the guard-band fallback")
	}
}

// CmpLog2 trusts float64 beyond the guard band and asks the exact
// comparison inside it (NaN included), counting each such fallback.
func TestCmpLog2Band(t *testing.T) {
	st := &stats.Stats{}
	exactCalls := 0
	exact := func() int { exactCalls++; return 7 }
	for _, tc := range []struct {
		a, b float64
		want int
	}{
		{10, 10 - 2*DefaultLogGuard, 1},
		{-3, -3 + 2*DefaultLogGuard, -1},
		{10, 10 + DefaultLogGuard/2, 7},
		{10, 10, 7},
		{math.Inf(-1), math.Inf(-1), 7},
		{math.NaN(), 1, 7},
	} {
		if got := CmpLog2(st, tc.a, tc.b, exact); got != tc.want {
			t.Errorf("CmpLog2(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	if exactCalls != 4 || st.Snapshot().Fallbacks != 4 {
		t.Errorf("%d exact calls and %d fallbacks, want 4 and 4", exactCalls, st.Snapshot().Fallbacks)
	}
}

// WOrder.MinMask picks the same access cost MinW does, for every
// prefix set of a small instance.
func TestWOrderMinMaskMatchesMinW(t *testing.T) {
	const n = 7
	in := randomInstance(n, 11)
	order := NewWOrder(in)
	for mask := 1; mask < 1<<n; mask++ {
		x := graph.NewBitset(n)
		for u := 0; u < n; u++ {
			if mask&(1<<u) != 0 {
				x.Add(u)
			}
		}
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				continue
			}
			if got, want := order.MinMask(in, v, mask), in.MinW(v, x); !got.Equal(want) {
				t.Fatalf("mask %b v %d: MinMask %v, MinW %v", mask, v, got, want)
			}
		}
	}
}

// Property: the Tier-2 incremental evaluator is bit-identical to a
// from-scratch Evaluate across 200 random move sequences per size —
// MoveExact, Apply via the memoized shadow commit, and Apply via a
// fresh walk all land on exactly the cost in.Cost reports.
func TestIncEvalBitIdentical(t *testing.T) {
	for _, n := range []int{2, 5, 9} {
		in := randomInstance(n, int64(n)*31)
		rng := rand.New(rand.NewSource(int64(n) * 17))
		cur := Sequence(rng.Perm(n))
		inc := NewIncEval(in, cur)
		next := make(Sequence, n)
		for it := 0; it < 200; it++ {
			copy(next, cur)
			i := rng.Intn(n)
			j := rng.Intn(n)
			for j == i {
				j = rng.Intn(n)
			}
			if rng.Intn(2) == 0 {
				next[i], next[j] = next[j], next[i]
			} else {
				v := next[i]
				copy(next[i:], next[i+1:])
				copy(next[j+1:], next[j:n-1])
				next[j] = v
			}
			from := i
			if j < i {
				from = j
			}
			want := in.Cost(next)
			if e := inc.MoveLog2(next, from); math.Abs(e-want.Log2()) > 1e-9 {
				t.Fatalf("n=%d it=%d: MoveLog2 = %v, exact log₂ = %v", n, it, e, want.Log2())
			}
			switch rng.Intn(3) {
			case 0:
				// Exact probe only; the current sequence stays put.
				if got := inc.MoveExact(next, from); !got.Equal(want) {
					t.Fatalf("n=%d it=%d: MoveExact = %v, Evaluate = %v", n, it, got, want)
				}
			case 1:
				// Probe then adopt: Apply commits the memoized shadow walk.
				if got := inc.MoveExact(next, from); !got.Equal(want) {
					t.Fatalf("n=%d it=%d: MoveExact = %v, Evaluate = %v", n, it, got, want)
				}
				inc.Apply(next, from)
				cur, next = next, cur
			case 2:
				// Adopt directly: Apply re-walks the suffix itself.
				inc.Apply(next, from)
				cur, next = next, cur
			}
			if !inc.Cost().Equal(in.Cost(cur)) {
				t.Fatalf("n=%d it=%d: incremental cost %v, Evaluate %v for %v",
					n, it, inc.Cost(), in.Cost(cur), cur)
			}
		}
		// Reset re-anchors bit-identically too.
		z := Sequence(rng.Perm(n))
		inc.Reset(z)
		if !inc.Cost().Equal(in.Cost(z)) {
			t.Fatalf("n=%d: Reset cost %v, Evaluate %v", n, inc.Cost(), in.Cost(z))
		}
	}
}
