package num

import (
	"encoding/binary"
	"math/bits"
)

// Key is an exact identity of a Num's value that costs no allocation:
// two valid Nums have equal Keys exactly when they are numerically
// equal, whichever representation (dyadic or big.Float) each carries.
// The value is M·2^Exp with M the odd integer mantissa in
// little-endian words (M[0] least significant); 0 is the zero Key, and
// +Inf (which only overflowing big arithmetic produces) has M = 0 and
// Exp = 1.
//
// A dyadic value's Key is its raw words; a big value's is its 256-bit
// mantissa (bigWords, pooled temporaries) with the trailing zero bits
// shifted out, so a big value that a dyadic one could hold gets the
// dyadic value's Key.
type Key struct {
	M   [4]uint64
	Exp int64
}

// Key returns n's value identity. A dyadic value is already in Key
// form — normDy keeps its mantissa odd and a zero's exponent 0 — so
// its Key is a copy of its words, and the call inlines.
func (n Num) Key() Key {
	if n.dy {
		return Key{M: [4]uint64{n.mlo, n.mhi}, Exp: int64(n.exp)}
	}
	return n.bigKey()
}

// bigKey is Key of a big value.
func (n *Num) bigKey() Key {
	n.check()
	switch {
	case n.f.Sign() == 0:
		return Key{}
	case n.f.IsInf():
		return Key{Exp: 1}
	}
	w, pe := bigWords(n.f)
	return oddKey(w, pe-Prec)
}

// oddKey returns the Key of w·2^e for a nonzero w: the trailing zero
// bits of w move into the exponent.
func oddKey(w [4]uint64, e int64) Key {
	i := 0
	for w[i] == 0 {
		i++
	}
	tz := bits.TrailingZeros64(w[i])
	var k Key
	for j := 0; j+i < 4; j++ {
		k.M[j] = w[j+i] >> tz
		if tz != 0 && j+i+1 < 4 {
			k.M[j] |= w[j+i+1] << (64 - tz)
		}
	}
	k.Exp = e + int64(64*i+tz)
	return k
}

// Append appends a compact, self-delimiting binary form of k to dst:
// the count of significant mantissa words, each of them as 8
// little-endian bytes, then Exp as a varint. Distinct Keys append
// distinct bytes, and a sequence of appended Keys decodes
// unambiguously, so hashing the concatenation hashes the values
// exactly.
func (k Key) Append(dst []byte) []byte {
	nw := 4
	for nw > 0 && k.M[nw-1] == 0 {
		nw--
	}
	dst = append(dst, byte(nw))
	for _, w := range k.M[:nw] {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return binary.AppendVarint(dst, k.Exp)
}
