package qon

import (
	"testing"

	"approxqo/internal/graph"
	"approxqo/internal/num"
)

// TestEvaluateZeroBigFloatAllocs pins the dyadic fast path at the cost
// model's level, not just num's: a full Evaluate walk over an
// all-power-of-two uniform instance (the f_N reduction shape) must
// allocate no big.Float at all. Every product of pow2 parameters is a
// pow2, and the cost sums span an exponent range far below the 128-bit
// mantissa budget, so any big.Float allocation here means the fast
// path silently stopped firing — the exact regression the parseDyadic
// ordering bug once caused on the serving path.
func TestEvaluateZeroBigFloatAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled temporaries at random under -race")
	}
	const n = 8
	q := graph.Path(n)
	in := NewUniform(q, num.Pow2(10), num.Pow2(-4), num.Pow2(6))
	z := make(Sequence, n)
	for i := range z {
		z[i] = i
	}
	// One warm pass populates the scratch pool; retry a few times to
	// ride out sync.Pool eviction by a concurrent GC.
	in.Evaluate(z)
	for attempt := 0; attempt < 3; attempt++ {
		before := num.FloatAllocs()
		bd := in.Evaluate(z)
		if bd.C.IsZero() {
			t.Fatalf("degenerate cost %v", bd.C)
		}
		if num.FloatAllocs() == before {
			return
		}
	}
	t.Fatal("Evaluate allocated big.Floats on an all-pow2 instance on every attempt")
}
