package num

// The 'p'-notation codec. MarshalJSON and CanonicalAppend spell every
// nonzero value the way big.Float.Text('p', 0) does — "0x.<hex
// mantissa>p<±binary exponent>", the mantissa normalized so that its
// first digit is ≥ 8 and its trailing zero digits trimmed — and
// UnmarshalJSON reads that spelling back. At Prec = 256 a mantissa is
// at most 64 hex digits, four uint64 words, so both directions run on
// a [4]uint64 (little-endian: w[3] is the most significant word)
// instead of math/big's text conversion:
//
//   - a dyadic value's 128-bit mantissa is top-aligned in the words;
//   - a big value's mantissa is read out of its big.Float into them
//     (bigWords);
//   - a parsed mantissa that fits 128 bits becomes a dyadic value, a
//     wider one a big.Float built from the words (bigFromWords) — the
//     representation and value big.ParseFloat + capture give.
//
// Every other spelling (decimal fractions, uppercase hex, more than 64
// digits, exponents of 10 or more digits, ...) falls back to
// big.ParseFloat, which stays the reference FuzzUnmarshalJSON checks
// the codec against.

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"strconv"
)

// maxPText bounds the 'p' text of any Num: "0x." + 64 digits + 'p' +
// a signed 32-bit exponent.
const maxPText = 3 + Prec/4 + 1 + 11

// hexVal maps a lowercase hex digit to its value and every other byte
// to 0xff.
var hexVal = func() (t [256]uint8) {
	for i := range t {
		t[i] = 0xff
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = uint8(c - '0')
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] = uint8(c-'a') + 10
	}
	return t
}()

// appendText appends n's 'p' text (its CanonicalAppend bytes) to dst.
func (n Num) appendText(dst []byte) []byte {
	if n.dy {
		if n.mhi|n.mlo == 0 {
			return append(dst, '0')
		}
		l := bitLen128(n.mhi, n.mlo)
		return appendP(dst, shl256(n.mhi, n.mlo, uint(Prec-l)), int64(n.exp)+int64(l))
	}
	if n.f.Sign() == 0 || n.f.IsInf() {
		return n.f.Append(dst, 'p', 0) // no mantissa digits to write
	}
	w, pe := bigWords(n.f)
	return appendP(dst, w, pe)
}

// appendP appends "0x.<digits>p<±pe>" for the normalized mantissa w
// (top bit of w[3] set): its hex digits down to the last nonzero one.
func appendP(dst []byte, w [4]uint64, pe int64) []byte {
	last := 0
	for w[last] == 0 {
		last++
	}
	var digits [Prec / 4]byte
	for k := 3; k >= last; k-- {
		binary.BigEndian.PutUint64(digits[16*(3-k):], hexDigits(w[k]>>32))
		binary.BigEndian.PutUint64(digits[16*(3-k)+8:], hexDigits(w[k]&0xffffffff))
	}
	nd := 16*(4-last) - bits.TrailingZeros64(w[last])/4
	dst = append(dst, '0', 'x', '.')
	dst = append(dst, digits[:nd]...)
	dst = append(dst, 'p')
	if pe >= 0 {
		dst = append(dst, '+')
	}
	return strconv.AppendInt(dst, pe, 10)
}

// hexDigits spells the 32-bit v as eight lowercase hex digits, one per
// byte, most significant digit in the most significant byte.
func hexDigits(v uint64) uint64 {
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	// '0'+d, plus 'a'−'0'−10 = 0x27 where d ≥ 10 (d+6 carries into bit 4).
	return v + 0x3030303030303030 + (v+0x0606060606060606)>>4&0x0101010101010101*0x27
}

// bigWords returns the mantissa of f (positive, finite, and like every
// big.Float a Num holds of precision Prec) top-aligned in four words,
// and its exponent: f = 0.w · 2^pe, the form big.Float prints. Pooled
// temporaries keep it allocation-free.
func bigWords(f *big.Float) (w [4]uint64, pe int64) {
	t := getTemps()
	pe = int64(f.MantExp(nil))
	t.a.SetMantExp(f, Prec-int(pe)) // the mantissa as an integer in [2^255, 2^256)
	t.a.Int(&t.i)
	var b [Prec / 8]byte
	t.i.FillBytes(b[:])
	putTemps(t)
	for k := range w {
		w[k] = binary.BigEndian.Uint64(b[8*(3-k):])
	}
	return w, pe
}

// bigFromWords returns w · 2^e as a fresh big.Float; w fits Prec bits,
// so the value is exact.
func bigFromWords(w [4]uint64, e int64) *big.Float {
	var b [Prec / 8]byte
	for k, x := range w {
		binary.BigEndian.PutUint64(b[8*(3-k):], x)
	}
	t := getTemps()
	f := newFloat().SetInt(t.i.SetBytes(b[:]))
	putTemps(t)
	return f.SetMantExp(f, int(e))
}

// parseText parses the two textual forms MarshalJSON emits — bare
// decimal integers and 'p' notation ("0x.c0e4p+14") — without
// math/big's text conversion. Anything else reports false and takes
// the big.ParseFloat path.
func parseText(b []byte) (Num, bool) {
	if len(b) == 0 {
		return Num{}, false
	}
	if len(b) == 1 && b[0] == '0' {
		return Num{dy: true}, true
	}
	// The 'p'-notation check must precede the decimal branch: hex forms
	// start with '0' too.
	if len(b) >= 2 && b[0] == '0' && b[1] == 'x' {
		if len(b) < 7 || b[2] != '.' {
			return Num{}, false
		}
		return parseP(b)
	}
	if b[0] >= '0' && b[0] <= '9' {
		if len(b) > 19 {
			return Num{}, false // may exceed uint64: let big.ParseFloat decide
		}
		var v uint64
		for _, c := range b {
			if c < '0' || c > '9' {
				return Num{}, false
			}
			v = v*10 + uint64(c-'0')
		}
		n, _ := dyNum(0, v, 0)
		return n, true
	}
	return Num{}, false
}

// parseP parses 'p' notation ("0x." already checked) with at most 64
// lowercase mantissa digits and an exponent of at most 9 digits. The
// digits fill the words sixteen at a time, most significant word
// first, eight per step while eight digits follow (hexChunk).
func parseP(b []byte) (Num, bool) {
	var m [4]uint64 // m[0] holds digits 0–15, m[1] digits 16–31, ...
	i, nd := 3, 0
	for ; i+8 <= len(b) && nd < Prec/4; i, nd = i+8, nd+8 {
		v, ok := hexChunk(binary.BigEndian.Uint64(b[i:]))
		if !ok {
			break
		}
		m[nd/16] = m[nd/16]<<32 | v
	}
	for ; i < len(b) && b[i] != 'p'; i++ {
		d := hexVal[b[i]]
		if d > 15 || nd == Prec/4 {
			return Num{}, false
		}
		m[nd/16] = m[nd/16]<<4 | uint64(d)
		nd++
	}
	if nd == 0 || i >= len(b)-1 {
		return Num{}, false
	}
	if r := nd % 16; r != 0 {
		m[nd/16] <<= 4 * uint(16-r)
	}
	i++
	neg := false
	switch b[i] {
	case '+':
	case '-':
		neg = true
	default:
		return Num{}, false
	}
	i++
	if i == len(b) || len(b)-i > 9 {
		return Num{}, false
	}
	var ev int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return Num{}, false
		}
		ev = ev*10 + int64(c-'0')
	}
	if neg {
		ev = -ev
	}
	// The words hold 0.<digits> · 2^256: the value is m · 2^(ev−256), or
	// m[0]:m[1] · 2^(ev−128) when the digits fit those two words.
	if nd <= 32 {
		return dyNum(m[0], m[1], ev-128)
	}
	w := [4]uint64{m[3], m[2], m[1], m[0]}
	if hi, lo, e, ok := fit256(w, ev-Prec); ok {
		return Num{mhi: hi, mlo: lo, exp: int32(e), dy: true}, true
	}
	return Num{f: bigFromWords(w, ev-Prec)}, true
}

// hexChunk decodes eight lowercase hex digits, the first in the most
// significant byte of x, into 32 bits; ok is false when any byte is
// not such a digit. Each byte is range-checked by adding a bias that
// carries into its top bit exactly when it reaches a bound, with the
// top bits kept clear first so no carry crosses a byte.
func hexChunk(x uint64) (v uint64, ok bool) {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	if x&highs != 0 {
		return 0, false
	}
	digit := (x + (0x80-'0')*ones) &^ (x + (0x80-'9'-1)*ones) & highs
	letter := (x + (0x80-'a')*ones) &^ (x + (0x80-'f'-1)*ones) & highs
	if digit|letter != highs {
		return 0, false
	}
	v = x&(0x0f*ones) + letter>>7*9 // 'a'&0x0f = 1: +9 makes 10
	v = (v>>4 | v) & 0x00ff00ff00ff00ff
	v = (v>>8 | v) & 0x0000ffff0000ffff
	return (v>>16 | v) & 0xffffffff, true
}
