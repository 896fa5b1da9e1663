package num

import (
	"encoding/json"
	"fmt"
	"math/big"
	"strings"
	"testing"
)

// referenceUnmarshal is UnmarshalJSON without the 'p' codec: every
// spelling goes through big.ParseFloat and capture. The codec must
// agree with it on every input.
func referenceUnmarshal(data []byte) (Num, error) {
	b := data
	if len(b) >= 2 && b[0] == '"' && b[len(b)-1] == '"' {
		b = b[1 : len(b)-1]
	}
	s := string(b)
	f, _, err := big.ParseFloat(s, 0, Prec, big.ToNearestEven)
	if err != nil {
		return Num{}, fmt.Errorf("num: parsing %q: %w", s, err)
	}
	if f.Sign() < 0 {
		return Num{}, fmt.Errorf("num: negative value %q", s)
	}
	if f.IsInf() {
		return Num{}, fmt.Errorf("num: non-finite value %q", s)
	}
	if d, ok := capture(f); ok {
		return d, nil
	}
	return Num{f: f}, nil
}

// FuzzUnmarshalJSON is the codec differential: on every input the
// accept/reject decision, the value and the representation (dyadic or
// big, and for big the float's precision, mode and accuracy) equal the
// big.ParseFloat + capture reference; every accepted value's
// MarshalJSON and CanonicalAppend bytes equal big.Float.Text('p', 0);
// and the marshalled form decodes back to the same value.
func FuzzUnmarshalJSON(f *testing.F) {
	f.Add(`"42"`)
	f.Add(`"0x1p+5000"`)
	f.Add(`"1.5e300"`)
	f.Add(`"-3"`)
	f.Add(`""`)
	f.Add(`"inf"`)
	f.Add(`"0"`)
	f.Add(`12345`)
	// Mantissas at the codec's word and width boundaries: 32 digits
	// (128 bits, dyadic), 33 (big unless trailing zeros), 64 (256
	// bits, the last the codec reads) and 65 (big.ParseFloat).
	for _, digits := range []int{16, 17, 32, 33, 48, 64, 65} {
		m := "f" + strings.Repeat("3", digits-2) + "d"
		f.Add(`"0x.` + m + `p+7"`)
		f.Add(`"0x.` + m + `p-1000"`)
	}
	f.Add(`"0x.8` + strings.Repeat("0", 40) + `p+1"`)          // trailing zero nibbles: narrow value, 41 digits
	f.Add(`"0x.c` + strings.Repeat("0", 62) + `1p+0"`)         // 65 digits
	f.Add(`"0x.` + strings.Repeat("0", 63) + `1p+0"`)          // leading zeros, 64 digits
	f.Add(`"0x.8` + strings.Repeat("a", 50) + `0000p+300"`)    // wide, trailing zero nibbles
	f.Add(`"0x.C0E4p+14"`)                                     // uppercase hex
	f.Add(`"0x.c0e4P+14"`)                                     // uppercase exponent marker
	f.Add(`"0x.c0e4p+999999999"`)                              // 9-digit exponent
	f.Add(`"0x.c0e4p-999999999"`)                              // 9-digit exponent
	f.Add(`"0x.c0e4p+1000000000"`)                             // 10-digit exponent
	f.Add(`"0x.f` + strings.Repeat("7", 60) + `p-1000000000"`) // wide, 10-digit exponent
	f.Add(`"0x.0p+0"`)
	f.Add(`"0x.p+3"`)
	f.Add(`"0x.8p3"`)
	f.Fuzz(func(t *testing.T, input string) {
		var n Num
		err := n.UnmarshalJSON([]byte(input))
		ref, rerr := referenceUnmarshal([]byte(input))
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("%q: codec error %v, reference error %v", input, err, rerr)
		}
		if err != nil {
			return
		}
		if n.dy != ref.dy {
			t.Fatalf("%q: dyadic=%v, reference dyadic=%v", input, n.dy, ref.dy)
		}
		if n.dy && (n.mhi != ref.mhi || n.mlo != ref.mlo || n.exp != ref.exp) {
			t.Fatalf("%q: dyadic %x:%x·2^%d, reference %x:%x·2^%d", input, n.mhi, n.mlo, n.exp, ref.mhi, ref.mlo, ref.exp)
		}
		if !n.dy {
			if n.f.Cmp(ref.f) != 0 || n.f.Prec() != ref.f.Prec() || n.f.Mode() != ref.f.Mode() || n.f.Acc() != ref.f.Acc() {
				t.Fatalf("%q: big %s (prec %d, %v, %v), reference %s (prec %d, %v, %v)", input,
					n.f.Text('p', 0), n.f.Prec(), n.f.Mode(), n.f.Acc(),
					ref.f.Text('p', 0), ref.f.Prec(), ref.f.Mode(), ref.f.Acc())
			}
		}
		want := n.Float().Text('p', 0)
		if got := string(n.CanonicalAppend([]byte("x"))); got != "x"+want {
			t.Fatalf("%q: CanonicalAppend %q, big.Float.Text %q", input, got, want)
		}
		data, err := n.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal of accepted value: %v", err)
		}
		if string(data) != `"`+want+`"` {
			t.Fatalf("%q: MarshalJSON %s, big.Float.Text %q", input, data, want)
		}
		var back Num
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("reparse of own output %s: %v", data, err)
		}
		if !back.Equal(n) || back.dy != n.dy {
			t.Fatalf("round trip changed value or representation: %v -> %v", n, back)
		}
	})
}
