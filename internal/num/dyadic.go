package num

// The dyadic fast path. The workload generators, the hardness
// reductions and every float64-derived quantity in this repository are
// dyadic rationals — m·2^e with a small odd mantissa — for which the
// 256-bit big.Float machinery is pure overhead: each operation walks
// word slices, allocates, and rounds a value that was exact all along.
//
// A Num (and a Scratch) therefore carries its value in one of two
// representations:
//
//   - dyadic: an odd 128-bit mantissa (mhi:mlo) and an int32 exponent,
//     held inline with no heap state at all (dy == true);
//   - big: the classic *big.Float at Prec/ToNearestEven (f != nil).
//
// Every fast-path operation below fires only when its result is again
// exactly representable with a ≤128-bit mantissa. Such a result is
// exact, and an exact value of ≤128 significant bits is also exactly
// representable at Prec = 256 — so the big.Float computation would
// have produced the same value without rounding. Whenever the result
// would need more than 128 mantissa bits (or leave the exponent
// range), the operands are materialized into big.Floats and the
// operation is performed by math/big itself, which is bit-identical by
// construction. Certification, canonical fingerprints and the pinned
// goldens therefore cannot observe which representation served them.
//
// Fallback results stay big ("sticky"): re-capturing mid-computation
// would pay a MinPrec scan per operation for values that typically
// remain wide. The one deliberate re-capture point is UnmarshalJSON,
// so decoded instances enter the system dyadic whenever they can (the
// text codec itself is codec.go).

import (
	"math"
	"math/big"
	"math/bits"
	"sync"
	"sync/atomic"
)

// maxDyExp bounds the dyadic exponent (|exp| ≤ 2^30), leaving int32
// headroom so exponent sums in Mul never overflow and big.Float's own
// 32-bit exponent always covers a materialized value.
const maxDyExp = 1 << 30

// floatAllocs counts every big.Float the package has ever allocated.
// The allocation-regression tests assert a zero delta across all-dyadic
// computations; ScratchPoolStats covers the pooled accumulators.
var floatAllocs atomic.Int64

// FloatAllocs reports the cumulative number of big.Float values the
// package has allocated (constructors, fallback results, pool misses).
// A computation whose FloatAllocs delta is zero ran entirely on the
// dyadic fast path.
func FloatAllocs() int64 { return floatAllocs.Load() }

// dyTemps is a pooled quad of big.Floats used to materialize dyadic
// operands on the fallback path of the immutable Num API, plus the
// big.Int the 'p' codec (codec.go) moves mantissa words through.
// Scratch has its own inline temporaries.
type dyTemps struct {
	a, b, c, d *big.Float
	i          big.Int
}

var dyTempPool = sync.Pool{New: func() any {
	return &dyTemps{a: newFloat(), b: newFloat(), c: newFloat(), d: newFloat()}
}}

func getTemps() *dyTemps  { return dyTempPool.Get().(*dyTemps) }
func putTemps(t *dyTemps) { dyTempPool.Put(t) }

// setDy materializes the dyadic value (hi:lo)·2^e into dst exactly and
// returns dst, using h1 and h2 as scratch words for the two mantissa
// halves. All three must already carry Prec/ToNearestEven (every float
// here comes from newFloat) and dst must be distinct from h1 and h2:
// the Add below is deliberately non-aliased, because big.Float.Add
// allocates a temporary mantissa whenever its destination aliases an
// operand — exactly the per-op garbage this fast path exists to avoid.
// A 128-bit integer is exact at Prec = 256 and the exponent shift is
// exact, so no rounding occurs.
func setDy(dst, h1, h2 *big.Float, hi, lo uint64, e int64) *big.Float {
	if hi == 0 {
		dst.SetUint64(lo)
	} else {
		h1.SetUint64(hi)
		h1.SetMantExp(h1, 64)
		h2.SetUint64(lo)
		dst.Add(h1, h2)
	}
	if e != 0 && hi|lo != 0 {
		dst.SetMantExp(dst, int(e))
	}
	return dst
}

// bigVal returns n as a *big.Float: the backing float of a big-backed
// Num, or the dyadic value materialized into dst (h1, h2 as scratch).
func (n Num) bigVal(dst, h1, h2 *big.Float) *big.Float {
	if n.f != nil {
		return n.f
	}
	return setDy(dst, h1, h2, n.mhi, n.mlo, int64(n.exp))
}

// capture re-represents f dyadically when that loses nothing: f needs
// at most 128 mantissa bits and its exponent is in range. Used on the
// decode path only — it allocates big.Int scratch.
func capture(f *big.Float) (Num, bool) {
	if f.Sign() == 0 {
		return Num{dy: true}, true
	}
	if f.Sign() < 0 || f.IsInf() {
		return Num{}, false
	}
	mp := f.MinPrec()
	if mp > 128 {
		return Num{}, false
	}
	var m big.Float
	e := int64(f.MantExp(&m)) - int64(mp)
	if e < -maxDyExp || e > maxDyExp {
		return Num{}, false
	}
	// m ∈ [0.5, 1); m·2^mp is the odd integer mantissa (odd because
	// MinPrec is minimal — a trailing zero bit would shrink it).
	m.SetMantExp(&m, int(mp))
	i, _ := m.Int(nil)
	hi, lo := wordsTo128(i.Bits())
	return Num{mhi: hi, mlo: lo, exp: int32(e), dy: true}, true
}

// wordsTo128 assembles a ≤128-bit big.Int word slice (little-endian,
// as returned by Bits) into a uint128. The caller guarantees the value
// fits.
func wordsTo128(words []big.Word) (hi, lo uint64) {
	if bits.UintSize == 64 {
		if len(words) > 0 {
			lo = uint64(words[0])
		}
		if len(words) > 1 {
			hi = uint64(words[1])
		}
		return hi, lo
	}
	// 32-bit words: fold from the top, one 32-bit shift at a time.
	for idx := len(words) - 1; idx >= 0; idx-- {
		hi = hi<<32 | lo>>32
		lo = lo<<32 | uint64(words[idx])
	}
	return hi, lo
}

// bitLen128 is the bit length of the 128-bit value (hi:lo).
func bitLen128(hi, lo uint64) int {
	if hi != 0 {
		return 64 + bits.Len64(hi)
	}
	return bits.Len64(lo)
}

// shl128 shifts (hi:lo) left by s < 128 bits; the caller guarantees no
// overflow (bitLen128 + s ≤ 128).
func shl128(hi, lo uint64, s uint) (uint64, uint64) {
	if s >= 64 {
		return lo << (s - 64), 0
	}
	return hi<<s | lo>>(64-s), lo << s
}

// normDy strips trailing zero bits (the canonical dyadic mantissa is
// odd) and range-checks the exponent.
func normDy(hi, lo uint64, e int64) (uint64, uint64, int64, bool) {
	if hi|lo == 0 {
		return 0, 0, 0, true
	}
	var tz int
	if lo != 0 {
		tz = bits.TrailingZeros64(lo)
	} else {
		tz = 64 + bits.TrailingZeros64(hi)
	}
	if tz >= 64 {
		lo, hi = hi>>(tz-64), 0
	} else if tz > 0 {
		lo = lo>>uint(tz) | hi<<(64-uint(tz))
		hi >>= uint(tz)
	}
	e += int64(tz)
	if e < -maxDyExp || e > maxDyExp {
		return 0, 0, 0, false
	}
	return hi, lo, e, true
}

// dyNum wraps normDy into a Num.
func dyNum(hi, lo uint64, e int64) (Num, bool) {
	h, l, e2, ok := normDy(hi, lo, e)
	if !ok {
		return Num{}, false
	}
	return Num{mhi: h, mlo: l, exp: int32(e2), dy: true}, true
}

// addDyRaw computes (ahi:alo)·2^ae + (bhi:blo)·2^be when the sum again
// fits a 128-bit mantissa. Addition of positives never cancels, so the
// result's width is predictable up front and the arithmetic stays in
// two words.
func addDyRaw(ahi, alo uint64, ae int64, bhi, blo uint64, be int64) (hi, lo uint64, e int64, ok bool) {
	if ahi|alo == 0 {
		return bhi, blo, be, true
	}
	if bhi|blo == 0 {
		return ahi, alo, ae, true
	}
	if ae < be {
		ahi, alo, ae, bhi, blo, be = bhi, blo, be, ahi, alo, ae
	}
	d := ae - be
	if d > 0 && d+int64(bitLen128(ahi, alo)) > 128 {
		// The aligned sum spans more than 128 bits and its low bit is set
		// (b's mantissa is odd below a's lowest bit) — not representable.
		return 0, 0, 0, false
	}
	ahi, alo = shl128(ahi, alo, uint(d))
	var c uint64
	lo, c = bits.Add64(alo, blo, 0)
	hi, c = bits.Add64(ahi, bhi, c)
	if c != 0 {
		if lo&1 != 0 {
			return 0, 0, 0, false // odd 129-bit sum: needs 129 mantissa bits
		}
		lo = lo>>1 | hi<<63
		hi = hi>>1 | 1<<63
		be++
	}
	return normDy(hi, lo, be)
}

// mulDyRaw computes the product when it fits a 128-bit mantissa. Odd ×
// odd is odd, so the product either fits exactly or needs every one of
// its > 128 bits — there is nothing to renormalize.
func mulDyRaw(ahi, alo uint64, ae int64, bhi, blo uint64, be int64) (hi, lo uint64, e int64, ok bool) {
	if ahi|alo == 0 || bhi|blo == 0 {
		return 0, 0, 0, true
	}
	e = ae + be
	switch {
	case ahi == 0 && bhi == 0:
		hi, lo = bits.Mul64(alo, blo)
	case ahi != 0 && bhi != 0:
		return 0, 0, 0, false // both mantissas ≥ 2^64: product exceeds 128 bits
	default:
		if ahi == 0 {
			ahi, alo, blo = bhi, blo, alo
		}
		c1hi, c0 := bits.Mul64(alo, blo)
		c2, c1lo := bits.Mul64(ahi, blo)
		mid, carry := bits.Add64(c1hi, c1lo, 0)
		if c2+carry != 0 {
			return 0, 0, 0, false
		}
		hi, lo = mid, c0
	}
	return normDy(hi, lo, e)
}

// shl256 widens (hi:lo) << s into four little-endian words. The caller
// guarantees bitLen128 + s ≤ 256.
func shl256(hi, lo uint64, s uint) [4]uint64 {
	var w [4]uint64
	ws, bs := int(s/64), s%64
	var parts [3]uint64
	if bs == 0 {
		parts = [3]uint64{lo, hi, 0}
	} else {
		parts = [3]uint64{lo << bs, hi<<bs | lo>>(64-bs), hi >> (64 - bs)}
	}
	for i, p := range parts {
		if ws+i < 4 {
			w[ws+i] = p
		}
	}
	return w
}

// fit256 renormalizes a 256-bit value at scale 2^e back into the
// 128-bit dyadic form, failing when the odd mantissa is too wide.
func fit256(w [4]uint64, e int64) (uint64, uint64, int64, bool) {
	if w[0]|w[1]|w[2]|w[3] == 0 {
		return 0, 0, 0, true
	}
	tz := 0
	i := 0
	for w[i] == 0 {
		i++
		tz += 64
	}
	tz += bits.TrailingZeros64(w[i])
	ws, bs := tz/64, uint(tz%64)
	var r [4]uint64
	for j := 0; j < 4; j++ {
		k := j + ws
		if k < 4 {
			r[j] = w[k] >> bs
			if bs != 0 && k+1 < 4 {
				r[j] |= w[k+1] << (64 - bs)
			}
		}
	}
	if r[2]|r[3] != 0 {
		return 0, 0, 0, false
	}
	return normDy(r[1], r[0], e+int64(tz))
}

// subDyRaw computes a − b for a > b > 0 when the difference fits.
// Cancellation can shrink the result, so the aligned subtraction runs
// over 256 bits before the fit check.
func subDyRaw(ahi, alo uint64, ae int64, bhi, blo uint64, be int64) (hi, lo uint64, e int64, ok bool) {
	if ae >= be {
		d := ae - be
		if d+int64(bitLen128(ahi, alo)) > 256 {
			return 0, 0, 0, false // low bits of b survive below a's span: > 128 bits
		}
		a := shl256(ahi, alo, uint(d))
		var borrow uint64
		a[0], borrow = bits.Sub64(a[0], blo, 0)
		a[1], borrow = bits.Sub64(a[1], bhi, borrow)
		a[2], borrow = bits.Sub64(a[2], 0, borrow)
		a[3], _ = bits.Sub64(a[3], 0, borrow)
		return fit256(a, be)
	}
	// a > b with a's exponent smaller: b shifts into a's scale and, because
	// a's top bit is at or above b's, the shifted b still fits 128 bits.
	d := be - ae
	if d+int64(bitLen128(bhi, blo)) > 128 {
		return 0, 0, 0, false
	}
	bhi, blo = shl128(bhi, blo, uint(d))
	var borrow uint64
	lo, borrow = bits.Sub64(alo, blo, 0)
	hi, borrow = bits.Sub64(ahi, bhi, borrow)
	if borrow != 0 {
		return 0, 0, 0, false
	}
	return normDy(hi, lo, ae)
}

// cmpDyRaw compares two dyadic values by top-bit position, then by
// msb-aligned mantissas.
func cmpDyRaw(ahi, alo uint64, ae int64, bhi, blo uint64, be int64) int {
	za, zb := ahi|alo == 0, bhi|blo == 0
	switch {
	case za && zb:
		return 0
	case za:
		return -1
	case zb:
		return 1
	}
	la, lb := bitLen128(ahi, alo), bitLen128(bhi, blo)
	ta, tb := ae+int64(la), be+int64(lb)
	if ta != tb {
		if ta < tb {
			return -1
		}
		return 1
	}
	xhi, xlo := shl128(ahi, alo, uint(128-la))
	yhi, ylo := shl128(bhi, blo, uint(128-lb))
	switch {
	case xhi != yhi:
		if xhi < yhi {
			return -1
		}
		return 1
	case xlo != ylo:
		if xlo < ylo {
			return -1
		}
		return 1
	}
	return 0
}

// mantFloat converts the l-bit mantissa (hi:lo) into the correctly
// rounded float64 of its normalized form in [0.5, 1). For mantissas
// wider than 64 bits the dropped low bits collapse into a sticky bit
// below the 53-bit rounding boundary, so the uint64→float64 conversion
// rounds exactly as big.Float's Float64 would — this is what keeps the
// fast Log2/Float64 bit-identical to the MantExp path.
func mantFloat(hi, lo uint64, l int) float64 {
	if l <= 64 {
		return math.Ldexp(float64(lo), -l)
	}
	s := uint(l - 64)
	var top, dropped uint64
	if s == 64 {
		top, dropped = hi, lo
	} else {
		top = hi<<(64-s) | lo>>s
		dropped = lo << (64 - s)
	}
	if dropped != 0 {
		top |= 1
	}
	return math.Ldexp(float64(top), -64)
}

// log2DyRaw is Num.Log2 for a nonzero dyadic value: bit-identical to
// float64(exp) + math.Log2(mant.Float64()) on the materialized value.
func log2DyRaw(hi, lo uint64, e int64) float64 {
	l := bitLen128(hi, lo)
	return float64(e+int64(l)) + math.Log2(mantFloat(hi, lo, l))
}
