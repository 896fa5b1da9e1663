package num

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestConstructors(t *testing.T) {
	if got := FromInt64(42).String(); got != "42" {
		t.Errorf("FromInt64(42) = %s, want 42", got)
	}
	if !Zero().IsZero() {
		t.Error("Zero() is not zero")
	}
	if One().IsZero() {
		t.Error("One() is zero")
	}
	if got, ok := FromFloat64(2.5).Mul(FromInt64(2)).Int64(); !ok || got != 5 {
		t.Errorf("2.5*2 = %v (ok=%v), want 5", got, ok)
	}
	if got, ok := FromBigInt(big.NewInt(1 << 40)).Int64(); !ok || got != 1<<40 {
		t.Errorf("FromBigInt(2^40) = %d, want %d", got, int64(1)<<40)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"FromInt64 negative", func() { FromInt64(-1) }},
		{"FromFloat64 negative", func() { FromFloat64(-0.5) }},
		{"FromFloat64 NaN", func() { FromFloat64(math.NaN()) }},
		{"FromFloat64 Inf", func() { FromFloat64(math.Inf(1)) }},
		{"FromBigInt negative", func() { FromBigInt(big.NewInt(-3)) }},
		{"Div by zero", func() { One().Div(Zero()) }},
		{"Inv of zero", func() { Zero().Inv() }},
		{"Sub negative result", func() { One().Sub(FromInt64(2)) }},
		{"Pow negative exponent", func() { FromInt64(2).Pow(-1) }},
		{"Log2 of zero", func() { Zero().Log2() }},
		{"zero-value use", func() { var n Num; n.Add(One()) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestPow2(t *testing.T) {
	if got, ok := Pow2(10).Int64(); !ok || got != 1024 {
		t.Errorf("Pow2(10) = %d, want 1024", got)
	}
	if got := Pow2(-2).Float64(); got != 0.25 {
		t.Errorf("Pow2(-2) = %v, want 0.25", got)
	}
	// Far beyond float64 range.
	huge := Pow2(1 << 20)
	if got := huge.Log2(); got != float64(1<<20) {
		t.Errorf("Log2(2^(2^20)) = %v, want %v", got, float64(1<<20))
	}
	if huge.Float64() != math.Inf(1) {
		t.Error("huge value should overflow float64 to +Inf")
	}
}

func TestArithmeticExactness(t *testing.T) {
	// α = 4^30, t = α^25: quantities of the scale the reductions build.
	alpha := FromInt64(4).Pow(30)
	tt := alpha.Pow(25)
	if got, want := tt.Log2(), float64(2*30*25); got != want {
		t.Errorf("log2(4^30^25) = %v, want %v", got, want)
	}
	// Exact division back down.
	if !tt.Div(alpha.Pow(24)).Equal(alpha) {
		t.Error("α^25 / α^24 != α")
	}
	// Addition of distinct powers of two within mantissa range is exact.
	x := Pow2(200).Add(Pow2(10))
	if !x.Sub(Pow2(10)).Equal(Pow2(200)) {
		t.Error("(2^200 + 2^10) − 2^10 != 2^200")
	}
}

func TestCmpAndMinMax(t *testing.T) {
	a, b := FromInt64(3), FromInt64(7)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Error("Cmp ordering wrong")
	}
	if !a.Less(b) || a.Less(a) {
		t.Error("Less wrong")
	}
	if !a.LessEq(a) || b.LessEq(a) {
		t.Error("LessEq wrong")
	}
	if !a.Min(b).Equal(a) || !a.Max(b).Equal(b) {
		t.Error("Min/Max wrong")
	}
}

func TestSumProd(t *testing.T) {
	if !Sum().IsZero() {
		t.Error("empty Sum != 0")
	}
	if !Prod().Equal(One()) {
		t.Error("empty Prod != 1")
	}
	vs := []Num{FromInt64(2), FromInt64(3), FromInt64(4)}
	if got, _ := Sum(vs...).Int64(); got != 9 {
		t.Errorf("Sum = %d, want 9", got)
	}
	if got, _ := Prod(vs...).Int64(); got != 24 {
		t.Errorf("Prod = %d, want 24", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, n := range []Num{Zero(), One(), FromInt64(12345), Pow2(5000), FromFloat64(0.125)} {
		data, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("marshal %v: %v", n, err)
		}
		var back Num
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !back.Equal(n) {
			t.Errorf("round trip %v -> %s -> %v", n, data, back)
		}
	}
	var n Num
	if err := json.Unmarshal([]byte(`"-1"`), &n); err == nil {
		t.Error("unmarshal of negative value should fail")
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &n); err == nil {
		t.Error("unmarshal of garbage should fail")
	}
}

func TestImmutability(t *testing.T) {
	a := FromInt64(5)
	_ = a.Add(FromInt64(7))
	_ = a.Mul(FromInt64(7))
	_ = a.Pow(3)
	if got, _ := a.Int64(); got != 5 {
		t.Errorf("operand mutated: a = %d, want 5", got)
	}
	f := a.Float()
	f.SetInt64(99)
	if got, _ := a.Int64(); got != 5 {
		t.Error("Float() exposed internal state")
	}
}

// Property: for uint16 a, b the ring identities hold exactly.
func TestQuickRingIdentities(t *testing.T) {
	prop := func(a, b, c uint16) bool {
		na, nb, nc := FromInt64(int64(a)), FromInt64(int64(b)), FromInt64(int64(c))
		// (a+b)·c == a·c + b·c
		lhs := na.Add(nb).Mul(nc)
		rhs := na.Mul(nc).Add(nb.Mul(nc))
		if !lhs.Equal(rhs) {
			return false
		}
		// a·b == b·a, a+b == b+a
		return na.Mul(nb).Equal(nb.Mul(na)) && na.Add(nb).Equal(nb.Add(na))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: Pow agrees with repeated multiplication.
func TestQuickPow(t *testing.T) {
	prop := func(base uint8, exp uint8) bool {
		k := int64(exp % 32)
		b := FromInt64(int64(base))
		want := One()
		for i := int64(0); i < k; i++ {
			want = want.Mul(b)
		}
		return b.Pow(k).Equal(want)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestPowStressMatchesRepeatedMul checks Pow against repeated Mul on the
// input TestQuickPow once failed on under -race (231^21, 165 odd bits)
// and on random bases whose powers pass 128 bits but stay exact at
// Prec, from parallel goroutines with forced GCs in between. Under
// -race sync.Pool drops a share of its Puts, so the dyTempPool
// temporaries both paths borrow are dropped and re-created at random; a
// value that depended on their state would disagree here.
func TestPowStressMatchesRepeatedMul(t *testing.T) {
	rounds := 400
	if testing.Short() {
		rounds = 50
	}
	type job struct {
		base Num
		k    int64
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				// An odd base of `bits` bits raised to k needs at most
				// bits·k ≤ 256 mantissa bits: exact on both paths, so they
				// must agree bit for bit.
				bits := 8 + rng.Intn(33)
				k := int64(128/bits + 1 + rng.Intn(256/bits-128/bits))
				odd := FromInt64(rng.Int63n(1<<(bits-1)) | 1<<(bits-1) | 1)
				jobs := []job{
					{FromInt64(231), 21},
					{odd, k},
					{odd.Mul(Pow2(int64(-rng.Intn(40)))), k},
				}
				for _, j := range jobs {
					want := One()
					for i := int64(0); i < j.k; i++ {
						want = want.Mul(j.base)
					}
					got := j.base.Pow(j.k)
					if !got.Equal(want) || string(got.CanonicalAppend(nil)) != string(want.CanonicalAppend(nil)) {
						select {
						case errs <- fmt.Sprintf("%v^%d: Pow %v, repeated Mul %v", j.base, j.k, got, want):
						default:
						}
						return
					}
				}
				if r%16 == 0 {
					runtime.GC()
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// Property: Log2 of products adds, up to float rounding.
func TestQuickLog2Homomorphism(t *testing.T) {
	prop := func(a, b uint16) bool {
		na, nb := FromInt64(int64(a)+1), FromInt64(int64(b)+1)
		got := na.Mul(nb).Log2()
		want := na.Log2() + nb.Log2()
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: JSON round-trip is the identity on powers of two.
func TestQuickJSONPow2(t *testing.T) {
	prop := func(e int16) bool {
		n := Pow2(int64(e))
		data, err := json.Marshal(n)
		if err != nil {
			return false
		}
		var back Num
		return json.Unmarshal(data, &back) == nil && back.Equal(n)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: MulAdd(a, b, c) == a·b + c exactly.
func TestQuickMulAdd(t *testing.T) {
	prop := func(a, b, c uint16) bool {
		na, nb, nc := FromInt64(int64(a)), FromInt64(int64(b)), FromInt64(int64(c))
		return MulAdd(na, nb, nc).Equal(na.Mul(nb).Add(nc))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
