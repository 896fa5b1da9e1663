package num

import (
	"bytes"
	"math/big"
	"testing"
)

// keyValues spans both representations: dyadic values, big values no
// dyadic one can hold (wide mantissas, exponents past maxDyExp), and
// big values numerically equal to dyadic ones.
func keyValues() []Num {
	huge := Pow2(maxDyExp + 7)
	wide := FromInt64(3).Div(FromInt64(7)) // 256-bit mantissa
	return []Num{
		Zero(), One(), FromInt64(2), FromInt64(1000), FromFloat64(0.1), FromFloat64(0.75),
		Pow2(-maxDyExp), Pow2(maxDyExp), huge, huge.Mul(FromInt64(3)), wide, wide.Add(One()),
		{f: newFloat()},                                // big zero
		{f: newFloat().SetInt64(1000)},                 // big, dyadic-representable
		{f: newFloat().SetFloat64(0.75)},               // big, dyadic-representable
		huge.Mul(FromFloat64(0.1)).Div(huge),           // 0.1 through big arithmetic
		{f: newFloat().SetInf(false)},                  // +Inf
		{f: newFloat().SetMantExp(big.NewFloat(1), 1)}, // big 2
	}
}

// Keys are equal exactly when the values are, across representations,
// and so are their appended bytes.
func TestKeyExact(t *testing.T) {
	vs := keyValues()
	for i, a := range vs {
		for j, b := range vs {
			eq := a.Key() == b.Key()
			var want bool
			switch ai, bi := a.f != nil && a.f.IsInf(), b.f != nil && b.f.IsInf(); {
			case ai || bi:
				want = ai && bi
			default:
				want = a.Equal(b)
			}
			if eq != want {
				t.Fatalf("values %d (%v) and %d (%v): equal keys %v, equal values %v", i, a, j, b, eq, want)
			}
			if be := bytes.Equal(a.Key().Append(nil), b.Key().Append(nil)); be != want {
				t.Fatalf("values %d and %d: equal appended keys %v, equal values %v", i, j, be, want)
			}
		}
	}
	if k := Pow2(-3).Key(); k != (Key{M: [4]uint64{1}, Exp: -3}) {
		t.Fatalf("Pow2(-3).Key() = %+v", k)
	}
}

// Appended keys are self-delimiting: no key's bytes are a proper
// prefix of another's, so concatenations parse one way.
func TestKeyAppendSelfDelimiting(t *testing.T) {
	vs := keyValues()
	for i, a := range vs {
		for j, b := range vs {
			ab, bb := a.Key().Append(nil), b.Key().Append(nil)
			if len(ab) < len(bb) && bytes.HasPrefix(bb, ab) {
				t.Fatalf("key %d's bytes %x prefix key %d's %x", i, ab, j, bb)
			}
		}
	}
}

// Key allocates nothing on either representation.
func TestKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled temporaries at random under -race")
	}
	vs := keyValues()
	buf := make([]byte, 0, 64)
	if got := testing.AllocsPerRun(100, func() {
		for _, v := range vs {
			buf = v.Key().Append(buf[:0])
		}
	}); got != 0 {
		t.Fatalf("Key+Append allocate %.0f objects per sweep, want 0", got)
	}
}

// A dyadic value's Key is its raw words, which is exact only because
// every dyadic result is normalized (odd mantissa, zero at exponent
// 0). Check that against the big-float route on arithmetic results,
// including cancellation, carries and products of wide operands.
func TestKeyDyadicNormalized(t *testing.T) {
	vs := []Num{Zero(), One(), FromInt64(6), FromInt64(1 << 40), FromFloat64(0.1), FromFloat64(0.75), Pow2(-70), FromInt64(3).Div(FromInt64(4))}
	s := NewScratch()
	for _, a := range vs {
		for _, b := range vs {
			results := []Num{a.Add(b), a.Mul(b), a.Max(b).Sub(a.Min(b)), MulAdd(a, b, b), a.Add(b).Sub(b)}
			s.Set(a)
			s.MulAdd(b, b)
			results = append(results, s.Num())
			for _, r := range results {
				if !r.dy {
					continue
				}
				big := Num{f: r.Float()}
				if got, want := r.Key(), big.Key(); got != want {
					t.Fatalf("%v: dyadic key %+v, big-float key %+v", r, got, want)
				}
			}
		}
	}
}
