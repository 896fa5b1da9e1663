package num

import (
	"strings"
	"testing"
)

// TestCodecAllocs pins the 'p' codec's allocation budget on a value
// wider than 128 bits, the case that used to go through
// big.ParseFloat and big.Float.Text: decoding allocates only the
// big.Float and its mantissa, CanonicalAppend into a roomy buffer
// nothing, and MarshalJSON only the returned slice.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled temporaries at random under -race")
	}
	text := []byte(`"0x.f` + strings.Repeat("5", 50) + `3p-77"`)
	var n Num
	if err := n.UnmarshalJSON(text); err != nil || n.dy {
		t.Fatalf("decoding %s: err %v, dyadic %v (want a big value)", text, err, n.dy)
	}
	buf := make([]byte, 0, 2*maxPText)
	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"UnmarshalJSON", 2, func() { n.UnmarshalJSON(text) }},
		{"CanonicalAppend", 0, func() { buf = n.CanonicalAppend(buf[:0]) }},
		{"MarshalJSON", 1, func() { n.MarshalJSON() }},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got > tc.max {
			t.Errorf("%s allocates %.0f objects per call, want ≤ %.0f", tc.name, got, tc.max)
		}
	}
	if got := string(n.CanonicalAppend(nil)); `"`+got+`"` != string(text) {
		t.Fatalf("CanonicalAppend %q, want %s", got, text)
	}
}

// BenchmarkCodec times the 'p' codec's three entry points on a value
// wider than 128 bits and on a 53-bit dyadic one.
func BenchmarkCodec(b *testing.B) {
	for _, tc := range []struct{ name, text string }{
		{"wide", `"0x.f` + strings.Repeat("5", 50) + `3p-77"`},
		{"dyadic", `"0x.b9e34d41d23268p+0"`},
	} {
		text := []byte(tc.text)
		var n Num
		if err := n.UnmarshalJSON(text); err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 0, 2*maxPText)
		for _, op := range []struct {
			name string
			fn   func()
		}{
			{"decode", func() { n.UnmarshalJSON(text) }},
			{"append", func() { buf = n.CanonicalAppend(buf[:0]) }},
			{"marshal", func() { n.MarshalJSON() }},
		} {
			b.Run(tc.name+"/"+op.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					op.fn()
				}
			})
		}
	}
}
