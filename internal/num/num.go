// Package num provides arbitrary-magnitude non-negative arithmetic for
// query-optimization cost models.
//
// The hardness reductions in this repository manufacture costs such as
// α^{n²} with α = 4^n — magnitudes far outside float64's exponent range
// (≈2^1024) but trivially representable by math/big.Float, whose exponent
// is a 32-bit integer. All quantities produced by the reductions are
// (sums of few) powers of two, so a 256-bit mantissa makes the arithmetic
// exact for every comparison the experiments perform; for generic
// workloads it behaves as very wide floating point.
//
// Values whose mantissa fits 128 bits — every power of two, every
// float64-derived workload quantity, and most intermediate products the
// DPs form from them — are carried inline in a dyadic fixed-point form
// (odd uint128 mantissa × 2^int32) and computed on with plain machine
// arithmetic, falling back to big.Float transparently and
// bit-identically when a result outgrows the form (see dyadic.go).
//
// Num values are immutable: every operation returns a fresh value and
// never mutates its operands. The zero Num is not valid; use Zero(),
// FromInt64, or the other constructors.
package num

import (
	"fmt"
	"math"
	"math/big"
)

// Prec is the mantissa precision, in bits, used for all Num arithmetic.
const Prec = 256

// Num is an immutable non-negative number of arbitrary magnitude.
type Num struct {
	f        *big.Float // big representation; nil when dy
	mhi, mlo uint64     // dyadic odd mantissa (mhi:mlo); 0 means the value 0
	exp      int32      // dyadic exponent: value = (mhi:mlo)·2^exp
	dy       bool       // true when the dyadic fields carry the value
}

func newFloat() *big.Float {
	floatAllocs.Add(1)
	return new(big.Float).SetPrec(Prec).SetMode(big.ToNearestEven)
}

// Zero returns the number 0.
func Zero() Num { return Num{dy: true} }

// One returns the number 1.
func One() Num { return Num{mlo: 1, dy: true} }

// FromInt64 returns v as a Num. It panics if v is negative.
func FromInt64(v int64) Num {
	if v < 0 {
		panic(fmt.Sprintf("num: FromInt64 called with negative value %d", v))
	}
	n, _ := dyNum(0, uint64(v), 0)
	return n
}

// FromFloat64 returns v as a Num. It panics if v is negative, NaN or Inf.
func FromFloat64(v float64) Num {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("num: FromFloat64 called with invalid value %v", v))
	}
	if v == 0 {
		return Num{dy: true}
	}
	// Every finite float64 is dyadic: frexp's 53-bit mantissa scaled to an
	// integer is exact.
	fr, e := math.Frexp(v)
	n, _ := dyNum(0, uint64(fr*(1<<53)), int64(e)-53)
	return n
}

// FromBigInt returns v as a Num. It panics if v is negative.
func FromBigInt(v *big.Int) Num {
	if v.Sign() < 0 {
		panic("num: FromBigInt called with negative value")
	}
	if v.Sign() == 0 {
		return Num{dy: true}
	}
	if tz := v.TrailingZeroBits(); int64(v.BitLen())-int64(tz) <= 128 {
		t := new(big.Int).Rsh(v, tz)
		hi, lo := wordsTo128(t.Bits())
		if n, ok := dyNum(hi, lo, int64(tz)); ok {
			return n
		}
	}
	return Num{f: newFloat().SetInt(v)}
}

// Pow2 returns 2^exp for any int64 exponent (including negative ones).
func Pow2(exp int64) Num {
	if exp >= -maxDyExp && exp <= maxDyExp {
		return Num{mlo: 1, exp: int32(exp), dy: true}
	}
	f := newFloat().SetInt64(1)
	f.SetMantExp(f, int(exp))
	return Num{f: f}
}

// valid reports whether n was produced by a constructor.
func (n Num) valid() bool { return n.dy || n.f != nil }

// IsValid reports whether n was produced by a constructor (or decoded
// from JSON). Arithmetic on an invalid (zero-value) Num panics, so
// code that receives Num values from untrusted sources — decoded
// instances, optimizer results under audit — should check IsValid
// before computing with them.
func (n Num) IsValid() bool { return n.valid() }

func (n Num) check() {
	if !n.valid() {
		panic("num: use of zero-value Num; construct with Zero/FromInt64/...")
	}
}

// Float returns a copy of the underlying value as a big.Float.
func (n Num) Float() *big.Float {
	n.check()
	if n.f != nil {
		return newFloat().Set(n.f)
	}
	t := getTemps()
	f := setDy(newFloat(), t.a, t.b, n.mhi, n.mlo, int64(n.exp))
	putTemps(t)
	return f
}

// Add returns n + m.
func (n Num) Add(m Num) Num {
	n.check()
	m.check()
	if n.dy && m.dy {
		if hi, lo, e, ok := addDyRaw(n.mhi, n.mlo, int64(n.exp), m.mhi, m.mlo, int64(m.exp)); ok {
			return Num{mhi: hi, mlo: lo, exp: int32(e), dy: true}
		}
	}
	t := getTemps()
	defer putTemps(t)
	return Num{f: newFloat().Add(n.bigVal(t.a, t.c, t.d), m.bigVal(t.b, t.c, t.d))}
}

// Sub returns n − m. It panics if the result would be negative.
func (n Num) Sub(m Num) Num {
	n.check()
	m.check()
	if n.dy && m.dy {
		switch cmpDyRaw(n.mhi, n.mlo, int64(n.exp), m.mhi, m.mlo, int64(m.exp)) {
		case 0:
			return Num{dy: true}
		case -1:
			panic("num: Sub result is negative")
		}
		if m.mhi|m.mlo == 0 {
			return n
		}
		if hi, lo, e, ok := subDyRaw(n.mhi, n.mlo, int64(n.exp), m.mhi, m.mlo, int64(m.exp)); ok {
			return Num{mhi: hi, mlo: lo, exp: int32(e), dy: true}
		}
	}
	t := getTemps()
	defer putTemps(t)
	r := newFloat().Sub(n.bigVal(t.a, t.c, t.d), m.bigVal(t.b, t.c, t.d))
	if r.Sign() < 0 {
		panic("num: Sub result is negative")
	}
	return Num{f: r}
}

// Mul returns n · m.
func (n Num) Mul(m Num) Num {
	n.check()
	m.check()
	if n.dy && m.dy {
		if hi, lo, e, ok := mulDyRaw(n.mhi, n.mlo, int64(n.exp), m.mhi, m.mlo, int64(m.exp)); ok {
			return Num{mhi: hi, mlo: lo, exp: int32(e), dy: true}
		}
	}
	t := getTemps()
	defer putTemps(t)
	return Num{f: newFloat().Mul(n.bigVal(t.a, t.c, t.d), m.bigVal(t.b, t.c, t.d))}
}

// Div returns n / m. It panics if m is zero.
func (n Num) Div(m Num) Num {
	n.check()
	m.check()
	if m.dy {
		if m.mhi|m.mlo == 0 {
			panic("num: division by zero")
		}
		if n.dy {
			if n.mhi|n.mlo == 0 {
				return Num{dy: true}
			}
			if m.mhi == 0 && m.mlo == 1 {
				// Power-of-two divisor: an exact exponent shift.
				if q, ok := dyNum(n.mhi, n.mlo, int64(n.exp)-int64(m.exp)); ok {
					return q
				}
			}
		}
	} else if m.f.Sign() == 0 {
		panic("num: division by zero")
	}
	t := getTemps()
	defer putTemps(t)
	return Num{f: newFloat().Quo(n.bigVal(t.a, t.c, t.d), m.bigVal(t.b, t.c, t.d))}
}

// MulInt64 returns n · v. It panics if v is negative.
func (n Num) MulInt64(v int64) Num { return n.Mul(FromInt64(v)) }

// Pow returns n^k for k ≥ 0 by binary exponentiation. 0^0 is 1.
// The square-and-multiply chain performs the same sequence of rounded
// operations whichever representation carries the intermediates.
func (n Num) Pow(k int64) Num {
	n.check()
	if k < 0 {
		panic(fmt.Sprintf("num: Pow called with negative exponent %d", k))
	}
	result := One()
	base := n
	for k > 0 {
		if k&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Mul(base)
		k >>= 1
	}
	return result
}

// Inv returns 1/n. It panics if n is zero.
func (n Num) Inv() Num { return One().Div(n) }

// Cmp compares n and m, returning −1, 0 or +1.
func (n Num) Cmp(m Num) int {
	n.check()
	m.check()
	if n.dy && m.dy {
		return cmpDyRaw(n.mhi, n.mlo, int64(n.exp), m.mhi, m.mlo, int64(m.exp))
	}
	if n.f != nil && m.f != nil {
		return n.f.Cmp(m.f)
	}
	t := getTemps()
	defer putTemps(t)
	return n.bigVal(t.a, t.c, t.d).Cmp(m.bigVal(t.b, t.c, t.d))
}

// Less reports whether n < m.
func (n Num) Less(m Num) bool { return n.Cmp(m) < 0 }

// LessEq reports whether n ≤ m.
func (n Num) LessEq(m Num) bool { return n.Cmp(m) <= 0 }

// Equal reports whether n == m.
func (n Num) Equal(m Num) bool { return n.Cmp(m) == 0 }

// IsZero reports whether n == 0.
func (n Num) IsZero() bool {
	n.check()
	if n.dy {
		return n.mhi|n.mlo == 0
	}
	return n.f.Sign() == 0
}

// Min returns the smaller of n and m.
func (n Num) Min(m Num) Num {
	if n.Cmp(m) <= 0 {
		return n
	}
	return m
}

// Max returns the larger of n and m.
func (n Num) Max(m Num) Num {
	if n.Cmp(m) >= 0 {
		return n
	}
	return m
}

// Log2 returns log₂(n) as a float64. It panics if n is zero.
//
// The result is accurate to well below 1e-9 relative error, which is
// ample: the experiments compare log-domain magnitudes that differ by
// thousands.
func (n Num) Log2() float64 {
	n.check()
	if n.dy {
		if n.mhi|n.mlo == 0 {
			panic("num: Log2 of zero")
		}
		return log2DyRaw(n.mhi, n.mlo, int64(n.exp))
	}
	if n.f.Sign() == 0 {
		panic("num: Log2 of zero")
	}
	mant := newFloat()
	exp := n.f.MantExp(mant) // n = mant · 2^exp, mant ∈ [0.5, 1)
	m, _ := mant.Float64()
	return float64(exp) + math.Log2(m)
}

// Float64 returns the nearest float64. Values beyond float64 range
// return ±Inf in the usual big.Float manner (here always +Inf since Num
// is non-negative).
func (n Num) Float64() float64 {
	n.check()
	if n.dy {
		if n.mhi|n.mlo == 0 {
			return 0
		}
		l := bitLen128(n.mhi, n.mlo)
		if e := int64(n.exp) + int64(l); e >= -1021 && e <= 1023 {
			// Normal range: scaling the correctly rounded mantissa is exact.
			// Subnormal and overflow edges delegate to big.Float below.
			return math.Ldexp(mantFloat(n.mhi, n.mlo, l), int(e))
		}
		t := getTemps()
		defer putTemps(t)
		v, _ := n.bigVal(t.a, t.b, t.c).Float64()
		return v
	}
	v, _ := n.f.Float64()
	return v
}

// Int64 returns the value as an int64 when it is an integer in range;
// ok is false otherwise.
func (n Num) Int64() (v int64, ok bool) {
	n.check()
	if n.dy {
		if n.mhi|n.mlo == 0 {
			return 0, true
		}
		// The mantissa is odd: integers have a non-negative exponent.
		if n.exp < 0 || n.mhi != 0 || n.exp >= 64 {
			return 0, false
		}
		if n.mlo > uint64(math.MaxInt64)>>uint(n.exp) {
			return 0, false
		}
		return int64(n.mlo << uint(n.exp)), true
	}
	if !n.f.IsInt() {
		return 0, false
	}
	v, acc := n.f.Int64()
	return v, acc == big.Exact
}

// String renders n compactly: exact integers below 2^63 in decimal,
// everything else in big.Float scientific notation.
func (n Num) String() string {
	if !n.valid() {
		return "<invalid>"
	}
	if v, ok := n.Int64(); ok {
		return fmt.Sprintf("%d", v)
	}
	if n.f != nil {
		return n.f.Text('g', 10)
	}
	t := getTemps()
	defer putTemps(t)
	return n.bigVal(t.a, t.b, t.c).Text('g', 10)
}

// CanonicalAppend appends an exact, injective textual form of n to dst
// and returns the extended slice: two Nums append the same bytes if and
// only if they are numerically equal. It is the value encoding the
// canonical instance fingerprints (qon/qoh Canonicalize) fold into
// their hashes. The bytes are big.Float 'p' format — hex mantissa and
// binary exponent — and never contain a NUL byte, so callers may use
// 0x00 as a separator. Both representations format from mantissa words
// (codec.go), byte-identical to big.Float's rendering, so the bytes
// stay representation-independent.
func (n Num) CanonicalAppend(dst []byte) []byte {
	n.check()
	return n.appendText(dst)
}

// MarshalJSON encodes n as a JSON string in big.Float parseable form.
func (n Num) MarshalJSON() ([]byte, error) {
	if !n.valid() {
		return nil, fmt.Errorf("num: cannot marshal zero-value Num")
	}
	size := 2 + maxPText
	if n.dy {
		size -= 32 // a dyadic mantissa has at most 32 digits
	}
	buf := make([]byte, 1, size)
	buf[0] = '"'
	buf = n.appendText(buf)
	return append(buf, '"'), nil
}

// UnmarshalJSON decodes a Num from the representation MarshalJSON emits
// (it also accepts plain decimal strings and bare JSON numbers). Values
// whose mantissa fits 128 bits decode into the dyadic fast-path form.
// The 'p'-notation and small-integer spellings are read by the codec
// in codec.go; every other spelling goes through big.ParseFloat.
func (n *Num) UnmarshalJSON(data []byte) error {
	b := data
	if len(b) >= 2 && b[0] == '"' && b[len(b)-1] == '"' {
		b = b[1 : len(b)-1]
	}
	if d, ok := parseText(b); ok {
		*n = d
		return nil
	}
	s := string(b)
	f, _, err := big.ParseFloat(s, 0, Prec, big.ToNearestEven)
	if err != nil {
		return fmt.Errorf("num: parsing %q: %w", s, err)
	}
	if f.Sign() < 0 {
		return fmt.Errorf("num: negative value %q", s)
	}
	// big.ParseFloat turns over-large exponents into +Inf without an
	// error, and infinities poison later arithmetic (Inf−Inf and 0·Inf
	// panic inside math/big). Num is finite by construction; keep it
	// finite on the decode path too.
	if f.IsInf() {
		return fmt.Errorf("num: non-finite value %q", s)
	}
	if d, ok := capture(f); ok {
		*n = d
		return nil
	}
	*n = Num{f: f}
	return nil
}

// Sum returns the sum of all values, or 0 for an empty slice.
func Sum(values ...Num) Num {
	total := Zero()
	for _, v := range values {
		total = total.Add(v)
	}
	return total
}

// Prod returns the product of all values, or 1 for an empty slice.
func Prod(values ...Num) Num {
	total := One()
	for _, v := range values {
		total = total.Mul(v)
	}
	return total
}

// MulAdd returns a·b + c — the fused operation of the subset DPs' inner
// loops — rounding the product before the sum like the two-step form.
func MulAdd(a, b, c Num) Num {
	a.check()
	b.check()
	c.check()
	if a.dy && b.dy {
		if phi, plo, pe, ok := mulDyRaw(a.mhi, a.mlo, int64(a.exp), b.mhi, b.mlo, int64(b.exp)); ok {
			if c.dy {
				if hi, lo, e, ok2 := addDyRaw(phi, plo, pe, c.mhi, c.mlo, int64(c.exp)); ok2 {
					return Num{mhi: hi, mlo: lo, exp: int32(e), dy: true}
				}
			}
			// Exact product, wide sum: the big.Float product would have been
			// this same exact value, so only the addition rounds.
			t := getTemps()
			defer putTemps(t)
			p := setDy(t.d, t.a, t.b, phi, plo, pe)
			return Num{f: newFloat().Add(p, c.bigVal(t.a, t.b, t.c))}
		}
	}
	// Neither big.Float operation writes over one of its operands: the
	// product lands in a temporary, the sum in the fresh result.
	t := getTemps()
	defer putTemps(t)
	p := t.c.Mul(a.bigVal(t.a, t.c, t.d), b.bigVal(t.b, t.c, t.d))
	return Num{f: newFloat().Add(p, c.bigVal(t.a, t.b, t.d))}
}
