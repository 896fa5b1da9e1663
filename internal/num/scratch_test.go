package num

import (
	"math"
	"math/rand"
	"testing"
)

func TestScratchMatchesImmutableOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := FromFloat64(rng.Float64() * 1e6).Pow(int64(1 + rng.Intn(40)))
		b := FromFloat64(rng.Float64() + 0.5)
		c := FromFloat64(rng.Float64() * 1e3)

		s := NewScratch()
		if got := s.Set(a).Mul(b).Num(); !got.Equal(a.Mul(b)) {
			t.Fatalf("Mul mismatch: %v vs %v", got, a.Mul(b))
		}
		if got := s.Set(a).Add(c).Num(); !got.Equal(a.Add(c)) {
			t.Fatalf("Add mismatch")
		}
		if got := s.Set(c).MulAdd(a, b).Num(); !got.Equal(MulAdd(a, b, c)) {
			t.Fatalf("MulAdd mismatch: %v vs %v", got, MulAdd(a, b, c))
		}
		s.Release()
	}
}

func TestScratchChainBitIdentical(t *testing.T) {
	// A long in-place chain must round exactly like the equivalent
	// immutable chain: same ops, same order, same precision.
	rng := rand.New(rand.NewSource(11))
	factors := make([]Num, 64)
	for i := range factors {
		factors[i] = FromFloat64(rng.Float64()*3 + 0.1)
	}
	im := One()
	s := NewScratch()
	defer s.Release()
	s.SetInt64(1)
	for _, f := range factors {
		im = im.Mul(f)
		s.Mul(f)
	}
	if !s.Num().Equal(im) {
		t.Fatalf("chained product diverged: %v vs %v", s.Num(), im)
	}
	if s.Log2() != im.Log2() {
		t.Fatalf("Log2 diverged: %v vs %v", s.Log2(), im.Log2())
	}
}

func TestScratchCmpAndSign(t *testing.T) {
	s := NewScratch()
	defer s.Release()
	if s.Sign() != 0 {
		t.Fatalf("fresh scratch not zero")
	}
	s.Set(FromInt64(5))
	if s.Cmp(FromInt64(7)) >= 0 || s.Cmp(FromInt64(5)) != 0 || s.Cmp(FromInt64(3)) <= 0 {
		t.Fatalf("Cmp wrong")
	}
	u := NewScratch()
	defer u.Release()
	u.Set(FromInt64(7))
	if s.CmpScratch(u) >= 0 || u.CmpScratch(s) <= 0 {
		t.Fatalf("CmpScratch wrong")
	}
	u.SetScratch(s)
	if s.CmpScratch(u) != 0 {
		t.Fatalf("SetScratch did not copy")
	}
}

func TestScratchNumSnapshotIndependent(t *testing.T) {
	s := NewScratch()
	s.Set(FromInt64(42))
	snap := s.Num()
	s.Mul(FromInt64(2)) // mutate after snapshot
	s.Release()
	if !snap.Equal(FromInt64(42)) {
		t.Fatalf("snapshot aliased scratch: %v", snap)
	}
}

func TestScratchExtremeMagnitudes(t *testing.T) {
	// α^{n²} territory: the hardness reductions' magnitudes.
	huge := Pow2(100000)
	s := NewScratch()
	defer s.Release()
	s.Set(huge).Mul(huge)
	if got, want := s.Log2(), 200000.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Log2 of 2^200000 = %v", got)
	}
	if !s.Num().Equal(huge.Mul(huge)) {
		t.Fatalf("huge product mismatch")
	}
}

func TestScratchPoolStatsMonotone(t *testing.T) {
	g0, n0 := ScratchPoolStats()
	for i := 0; i < 32; i++ {
		s := NewScratch()
		s.Release()
	}
	g1, n1 := ScratchPoolStats()
	if g1 < g0+32 {
		t.Fatalf("gets did not advance: %d -> %d", g0, g1)
	}
	if n1 < n0 {
		t.Fatalf("news went backwards")
	}
}

// TestScratchSpilledZeroAllocs pins the no-alias rule of the spilled
// path: once its temporaries have grown to the chain's mantissa sizes, a
// Scratch past 128 bits makes no allocation in Add, AddScratch, Mul,
// MulScratch or either MulAdd branch. math/big allocates a fresh
// mantissa whenever a destination aliases an operand, so one aliased
// operation anywhere in the chain shows up here.
func TestScratchSpilledZeroAllocs(t *testing.T) {
	wide := FromInt64(3).Pow(100)  // 159 odd bits: big-backed
	wide2 := FromInt64(7).Pow(50)  // 141 odd bits: big-backed
	narrow := FromInt64(12345)     // dyadic
	half := FromInt64(3).Pow(60)   // 96 odd bits: dyadic, squares past 128
	small := FromFloat64(0.828125) // dyadic, below one
	s, u, v := NewScratch(), NewScratch(), NewScratch()
	defer s.Release()
	defer u.Release()
	defer v.Release()
	u.Set(wide2) // a spilled operand scratch
	v.Set(narrow)
	chain := func() {
		s.Set(wide)
		s.Add(narrow)           // spilled + dyadic operand
		s.Add(wide2)            // spilled + big operand
		s.Mul(small)            // spilled · dyadic operand
		s.Mul(wide2)            // spilled · big operand
		s.AddScratch(u)         // spilled + spilled scratch
		s.AddScratch(v)         // spilled + dyadic scratch
		s.MulScratch(v)         // spilled · dyadic scratch
		s.MulScratch(u)         // spilled · spilled scratch
		s.MulScratch(s)         // squaring through the scratch itself
		s.MulAdd(narrow, small) // exact dyadic product, wide sum
		s.MulAdd(half, half)    // product past 128 bits
		s.MulAdd(wide, narrow)  // big operand
		s.SetInt64(5)
		s.MulAdd(half, half) // dyadic accumulator, spilled product
	}
	// Two warm-up rounds: every result swaps a temporary into s.f, so a
	// chain with an odd number of swaps alternates which float each op
	// writes into from one round to the next.
	chain()
	chain()
	if got := testing.AllocsPerRun(100, chain); got != 0 {
		t.Fatalf("warm spilled Scratch chain made %.2f allocs per run, want 0", got)
	}
	// The chain must have stayed on the spilled path.
	if s.dy {
		t.Fatal("chain ended dyadic; it no longer exercises the spilled path")
	}
}
