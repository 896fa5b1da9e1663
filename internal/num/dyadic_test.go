package num

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// asBig returns n's value carried in the big.Float representation,
// bypassing the dyadic fast path. Float() materializes exactly, so the
// value is unchanged — only the representation differs.
func asBig(n Num) Num { return Num{f: n.Float()} }

// canon renders n's exact canonical bytes.
func canon(t *testing.T, n Num) string {
	t.Helper()
	return string(n.CanonicalAppend(nil))
}

// randNum draws a value mixing the representations and magnitudes the
// serving path actually sees: narrow and wide dyadic mantissas, large
// positive and negative exponents, float64-derived workload values, and
// occasionally a non-dyadic big-backed value (a rounded quotient).
func randNum(rng *rand.Rand) Num {
	switch rng.Intn(8) {
	case 0:
		return Zero()
	case 1:
		return FromInt64(rng.Int63n(1 << 20))
	case 2:
		return FromFloat64(rng.Float64() * math.Ldexp(1, rng.Intn(60)-30))
	case 3:
		return Pow2(int64(rng.Intn(4000) - 2000))
	case 4, 5:
		// Wide dyadic mantissa: odd 1..128-bit value times 2^e.
		hi, lo := rng.Uint64(), rng.Uint64()|1
		w := rng.Intn(128) + 1
		if w <= 64 {
			hi = 0
			lo = (lo | 1<<63) >> (64 - w) // force exact width w
			lo |= 1
		} else {
			hi = (hi | 1<<63) >> (128 - w)
		}
		n, ok := dyNum(hi, lo, int64(rng.Intn(2000)-1000))
		if !ok {
			return One()
		}
		return n
	case 6:
		// Non-dyadic: 1/3-like rounded quotient, kept big by stickiness.
		return FromInt64(int64(rng.Intn(1000) + 1)).Div(FromInt64(3))
	default:
		// Sum of scattered powers of two: dyadic with gaps.
		n := Zero()
		for i := 0; i < 3; i++ {
			n = n.Add(Pow2(int64(rng.Intn(200) - 100)))
		}
		return n
	}
}

// TestDyadicDifferential drives every Num operation with random
// operands through both representations and requires byte-identical
// canonical output — the property certification and the pinned goldens
// depend on.
func TestDyadicDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 5000; iter++ {
		a, b := randNum(rng), randNum(rng)
		c := randNum(rng)
		ba, bb, bc := asBig(a), asBig(b), asBig(c)

		check := func(op string, fast, ref Num) {
			t.Helper()
			if got, want := canon(t, fast), canon(t, ref); got != want {
				t.Fatalf("iter %d %s: fast %s != big %s (a=%s b=%s)", iter, op, got, want, canon(t, a), canon(t, b))
			}
		}
		check("add", a.Add(b), ba.Add(bb))
		check("mul", a.Mul(b), ba.Mul(bb))
		check("muladd", MulAdd(a, b, c), MulAdd(ba, bb, bc))
		if a.Cmp(b) >= 0 {
			check("sub", a.Sub(b), ba.Sub(bb))
		} else {
			check("sub", b.Sub(a), bb.Sub(ba))
		}
		if !b.IsZero() {
			check("div", a.Div(b), ba.Div(bb))
		}
		check("pow", a.Pow(int64(iter%7)), ba.Pow(int64(iter%7)))

		if got, want := a.Cmp(b), ba.Cmp(bb); got != want {
			t.Fatalf("iter %d cmp: fast %d != big %d (a=%s b=%s)", iter, got, want, canon(t, a), canon(t, b))
		}
		if got, want := a.Float64(), ba.Float64(); got != want {
			t.Fatalf("iter %d float64: fast %v != big %v (a=%s)", iter, got, want, canon(t, a))
		}
		if !a.IsZero() {
			if got, want := a.Log2(), ba.Log2(); got != want {
				t.Fatalf("iter %d log2: fast %v != big %v (a=%s)", iter, got, want, canon(t, a))
			}
		}
		gv, gok := a.Int64()
		wv, wok := ba.Int64()
		if gok != wok || (gok && gv != wv) {
			// Only the ok contract and the in-range value are compared:
			// the v returned alongside ok=false is unspecified.
			t.Fatalf("iter %d int64: fast (%d,%v) != big (%d,%v)", iter, gv, gok, wv, wok)
		}
		if got, want := a.String(), ba.String(); got != want {
			t.Fatalf("iter %d string: fast %q != big %q", iter, got, want)
		}
	}
}

// TestDyadicScratchDifferential runs random op chains through a Scratch
// and through the immutable API on big-backed operands, requiring
// bit-identical results — including mid-chain Cmp, Sign and Log2.
func TestDyadicScratchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		s := NewScratch()
		ref := Zero()
		for step := 0; step < 12; step++ {
			n := randNum(rng)
			bn := asBig(n)
			switch rng.Intn(5) {
			case 0:
				s.Set(n)
				ref = n
			case 1:
				s.Add(n)
				ref = asBig(ref).Add(bn)
			case 2:
				s.Mul(n)
				ref = asBig(ref).Mul(bn)
			case 3:
				m := randNum(rng)
				s.MulAdd(n, m)
				ref = MulAdd(bn, asBig(m), asBig(ref))
			default:
				t2 := NewScratch()
				t2.Set(n)
				if rng.Intn(2) == 0 {
					s.AddScratch(t2)
					ref = asBig(ref).Add(bn)
				} else {
					s.MulScratch(t2)
					ref = asBig(ref).Mul(bn)
				}
				t2.Release()
			}
			if got, want := s.Cmp(ref), 0; got != want {
				t.Fatalf("iter %d step %d: scratch %s != ref %s", iter, step, canon(t, s.Num()), canon(t, ref))
			}
			if got, want := s.Sign(), boolSign(!ref.IsZero()); got != want {
				t.Fatalf("iter %d step %d sign: %d != %d", iter, step, got, want)
			}
			if !ref.IsZero() {
				if got, want := s.Log2(), ref.Log2(); got != want {
					t.Fatalf("iter %d step %d log2: %v != %v", iter, step, got, want)
				}
			}
		}
		if got, want := canon(t, s.Num()), canon(t, asBig(ref)); got != want {
			t.Fatalf("iter %d snapshot: %s != %s", iter, got, want)
		}
		s.Release()
	}
}

func boolSign(nonzero bool) int {
	if nonzero {
		return 1
	}
	return 0
}

// TestDyadicJSONRoundTrip checks that marshaling is
// representation-independent and that decoding lands on the fast path
// without changing a single byte of the re-marshaled form.
func TestDyadicJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 3000; iter++ {
		a := randNum(rng)
		fast, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := json.Marshal(asBig(a))
		if err != nil {
			t.Fatal(err)
		}
		if string(fast) != string(ref) {
			t.Fatalf("iter %d marshal: %s != %s", iter, fast, ref)
		}
		var back Num
		if err := json.Unmarshal(fast, &back); err != nil {
			t.Fatal(err)
		}
		if !back.Equal(a) {
			t.Fatalf("iter %d round trip: %s != %s", iter, canon(t, back), canon(t, a))
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(fast) {
			t.Fatalf("iter %d re-marshal: %s != %s", iter, again, fast)
		}
	}
}

// TestParseDyadicForms pins the textual spellings the fast parser must
// accept and the ones it must hand to big.ParseFloat.
func TestParseDyadicForms(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Num
	}{
		{`"0"`, Zero()},
		{`"1"`, One()},
		{`"12345"`, FromInt64(12345)},
		{`"0x.cp+2"`, FromInt64(3)},
		{`"0x.c0e4p+14"`, FromInt64(12345)},
		{`"0x.8p-52"`, Pow2(-53)},
		{`"0.5"`, Pow2(-1)},        // decimal fraction: big.ParseFloat path
		{`"1e3"`, FromInt64(1000)}, // scientific: big.ParseFloat path
		{`3`, FromInt64(3)},        // bare JSON number
	} {
		var n Num
		if err := json.Unmarshal([]byte(tc.in), &n); err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		if !n.Equal(tc.want) {
			t.Fatalf("%s: got %s want %s", tc.in, n, tc.want)
		}
	}
	// The integer and 'p'-notation spellings must take the math/big-free
	// fast path itself, not merely decode correctly through the
	// fallback — this is the serve hot path's decode budget.
	for _, fast := range []struct {
		in   string
		want Num
	}{
		{"0", Zero()},
		{"12345", FromInt64(12345)},
		{"0x.cp+2", FromInt64(3)},
		{"0x.c0e4p+14", FromInt64(12345)},
		{"0x.8p-52", Pow2(-53)},
		{"0x.b9e34d41d23268p+0", FromFloat64(0.7261246)},
	} {
		n, ok := parseText([]byte(fast.in))
		if !ok {
			t.Fatalf("parseText(%q): fast path did not fire", fast.in)
		}
		if !n.Equal(fast.want) {
			t.Fatalf("parseText(%q): got %s want %s", fast.in, n, fast.want)
		}
	}
	for _, bad := range []string{`"-1"`, `"0x.cp+2junk"`, `"NaN"`, `""`, `"1e999999999999"`} {
		var n Num
		if err := json.Unmarshal([]byte(bad), &n); err == nil {
			t.Fatalf("%s: expected error, got %s", bad, n)
		}
	}
}

// TestDyadicCapture checks that big values whose mantissa fits 128 bits
// re-enter the fast representation on decode, and that wider ones stay
// big — both producing identical values.
func TestDyadicCapture(t *testing.T) {
	// 2^200 + 1 needs a 201-bit mantissa: must stay big.
	wide := Pow2(200).Add(One())
	if wide.dy {
		t.Fatal("2^200+1 should not be dyadic")
	}
	data, err := json.Marshal(wide)
	if err != nil {
		t.Fatal(err)
	}
	var back Num
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.dy {
		t.Fatal("201-bit mantissa captured dyadically")
	}
	if !back.Equal(wide) {
		t.Fatal("wide round trip changed value")
	}

	// A big-backed value with a narrow mantissa re-captures on decode.
	narrow := asBig(FromInt64(7).Mul(Pow2(500)))
	if narrow.dy {
		t.Fatal("asBig should force the big representation")
	}
	data, err = json.Marshal(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.dy {
		t.Fatal("7·2^500 should decode dyadically")
	}
	if !back.Equal(narrow) {
		t.Fatal("narrow round trip changed value")
	}
}

// TestDyadicZeroBigFloatAllocs asserts the heart of the fast path: a
// warm Scratch computing over power-of-two values allocates no
// big.Float at all.
func TestDyadicZeroBigFloatAllocs(t *testing.T) {
	vals := make([]Num, 16)
	for i := range vals {
		vals[i] = Pow2(int64(i*3 - 8))
	}
	// The window includes a warm NewScratch, so it also checks that a
	// pooled Scratch is reused without a big.Float. A pool miss (a GC
	// between Release and NewScratch, or -race dropping the Put) shows as
	// a rise in ScratchPoolStats' news; only such an attempt is retried.
	for attempt := 0; attempt < 10; attempt++ {
		s := NewScratch() // warm the pool slot before measuring
		s.Release()
		_, news := ScratchPoolStats()
		before := FloatAllocs()
		s = NewScratch()
		for i, v := range vals {
			s.MulAdd(v, vals[(i+5)%len(vals)])
			s.Cmp(v)
			_ = s.Sign()
		}
		if s.Sign() != 0 {
			_ = s.Log2()
		}
		got := s.Num() // dyadic snapshot: no allocation
		s.Release()
		_ = got
		if FloatAllocs() == before {
			return
		}
		if _, after := ScratchPoolStats(); after == news {
			t.Fatalf("dyadic scratch chain allocated %d big.Floats with no Scratch pool miss", FloatAllocs()-before)
		}
	}
	t.Fatal("every attempt met a Scratch pool miss")
}

// TestDyadicExtremeExponents exercises the exponent-range fallback:
// products whose exponents leave ±2^30 must transparently become big.
func TestDyadicExtremeExponents(t *testing.T) {
	huge := Pow2(maxDyExp - 1)
	sq := huge.Mul(huge)
	if sq.dy {
		t.Fatal("2^(2^31-2) cannot be dyadic")
	}
	if got := sq.Log2(); got != float64(2*(maxDyExp-1)) {
		t.Fatalf("log2 = %v", got)
	}
	tiny := Pow2(-(maxDyExp - 1))
	if !tiny.Mul(huge).Equal(One()) {
		t.Fatal("2^-k · 2^k != 1")
	}
	back := sq.Mul(asBig(tiny)).Mul(tiny)
	if !back.Equal(One().Mul(One())) || !back.Equal(One()) {
		t.Fatal("extreme exponent round trip broke")
	}
}

// TestDyadicSubPanics pins the Sub/Div/Log2 panic contracts on the fast
// path, matching the big-path messages exactly.
func TestDyadicSubPanics(t *testing.T) {
	expectPanic := func(msg string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("no panic, want %q", msg)
			}
			if s, _ := r.(string); s != msg {
				t.Fatalf("panic %v, want %q", r, msg)
			}
		}()
		fn()
	}
	expectPanic("num: Sub result is negative", func() { One().Sub(FromInt64(2)) })
	expectPanic("num: division by zero", func() { One().Div(Zero()) })
	expectPanic("num: division by zero", func() { One().Div(asBig(Zero())) })
	expectPanic("num: Log2 of zero", func() { Zero().Log2() })
}
