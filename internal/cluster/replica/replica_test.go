package replica

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"approxqo/internal/engine"
	"approxqo/internal/num"
)

// validEntry builds a certified n-relation entry for key.
func validEntry(key string, n int) *Entry {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = (i + 1) % n // a non-identity permutation
	}
	return &Entry{
		Key:    key,
		RawKey: "raw-" + key,
		Report: &engine.Report{
			Model: "qon",
			N:     n,
			Best: &engine.BestRecord{
				Winner:    "dp",
				Sequence:  seq,
				Cost:      num.FromInt64(42),
				Certified: true,
			},
		},
	}
}

func TestRangeContains(t *testing.T) {
	cases := []struct {
		r    Range
		h    uint64
		want bool
	}{
		{Range{10, 20}, 10, false}, // half-open: Lo excluded
		{Range{10, 20}, 11, true},
		{Range{10, 20}, 20, true}, // Hi included
		{Range{10, 20}, 21, false},
		{Range{20, 10}, 25, true}, // wrap: above Lo
		{Range{20, 10}, 5, true},  // wrap: below Hi
		{Range{20, 10}, 15, false},
		{Range{20, 10}, 0, true},
		{Range{7, 7}, 7, true}, // degenerate = full circle
		{Range{7, 7}, 123456, true},
	}
	for _, c := range cases {
		if got := c.r.Contains(c.h); got != c.want {
			t.Errorf("Range{%d,%d}.Contains(%d) = %v, want %v", c.r.Lo, c.r.Hi, c.h, got, c.want)
		}
	}
}

func TestEntryValidateAcceptsCertified(t *testing.T) {
	if err := validEntry("s2:qon:3:deadbeef", 3).Validate(); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	if err := validEntry("s2:qoh:2:cafe", 2).Validate(); err == nil {
		t.Fatal("qoh key with qon report model accepted")
	}
	qoh := validEntry("s2:qoh:2:cafe", 2)
	qoh.Report.Model = "qoh"
	if err := qoh.Validate(); err != nil {
		t.Fatalf("valid qoh entry rejected: %v", err)
	}
	if Key("qon", 3, "deadbeef") != KeySchema+":qon:3:deadbeef" {
		t.Fatalf("Key rendered %q", Key("qon", 3, "deadbeef"))
	}
}

func TestEntryValidateRejectsBrokenEntries(t *testing.T) {
	breakers := map[string]func(*Entry){
		"nil report":    func(e *Entry) { e.Report = nil },
		"nil best":      func(e *Entry) { e.Report.Best = nil },
		"uncertified":   func(e *Entry) { e.Report.Best.Certified = false },
		"no cost":       func(e *Entry) { e.Report.Best.Cost = num.Num{} },
		"bad key":       func(e *Entry) { e.Key = "nocolon" },
		"missing n":     func(e *Entry) { e.Key = "s2:qon:deadbeef" }, // pre-binding key format
		"legacy schema": func(e *Entry) { e.Key = "qon:3:deadbeef" },  // stored before the s2 tag
		"false exact": func(e *Entry) {
			// A cheaper certified run refutes the winner's exact claim.
			cheaper := num.FromInt64(21)
			e.Report.Best.Exact = true
			e.Report.Runs = []engine.RunRecord{{Name: "subset-dp", Certified: true, Cost: &cheaper}}
		},
		"empty fp":       func(e *Entry) { e.Key = "s2:qon:3:" },
		"unknown model":  func(e *Entry) { e.Key = "s2:sql:3:deadbeef" },
		"model mismatch": func(e *Entry) { e.Key = "s2:qoh:3:deadbeef" },
		"key n mismatch": func(e *Entry) { e.Key = "s2:qon:4:deadbeef" },
		"huge key n":     func(e *Entry) { e.Key = fmt.Sprintf("s2:qon:%d:deadbeef", engine.MaxServedN+1) },
		"non-numeric n":  func(e *Entry) { e.Key = "s2:qon:x:deadbeef" },
		"negative n":     func(e *Entry) { e.Key = "s2:qon:-3:deadbeef" },
		"zero n":         func(e *Entry) { e.Report.N = 0; e.Report.Best.Sequence = nil },
		"huge n":         func(e *Entry) { e.Report.N = engine.MaxServedN + 1 },
		"short sequence": func(e *Entry) { e.Report.Best.Sequence = e.Report.Best.Sequence[:2] },
		"repeated label": func(e *Entry) { e.Report.Best.Sequence = []int{0, 0, 1} },
		"label range":    func(e *Entry) { e.Report.Best.Sequence = []int{0, 1, 3} },
		"long fp":        func(e *Entry) { e.Key = "s2:qon:3:" + string(make([]byte, 200)) },
	}
	for name, brk := range breakers {
		e := validEntry("s2:qon:3:deadbeef", 3)
		brk(e)
		if err := e.Validate(); err == nil {
			t.Errorf("%s: broken entry accepted", name)
		}
	}
	var nilEntry *Entry
	if err := nilEntry.Validate(); err == nil {
		t.Error("nil entry accepted")
	}
}

func TestDecodeOfferBounds(t *testing.T) {
	body, _ := json.Marshal(&OfferRequest{From: "w1", Entries: []*Entry{validEntry("s2:qon:2:ff", 2)}})
	off, err := DecodeOffer(body, 0)
	if err != nil {
		t.Fatalf("valid offer rejected: %v", err)
	}
	if len(off.Entries) != 1 || off.From != "w1" {
		t.Fatalf("offer decoded wrong: %+v", off)
	}
	for _, bad := range []string{
		`{"entries":[]}`,
		`{"entries":null}`,
		`{"entries":[null]}`,
		`not json`,
	} {
		if _, err := DecodeOffer([]byte(bad), 0); err == nil {
			t.Errorf("DecodeOffer accepted %q", bad)
		}
	}
	two, _ := json.Marshal(&OfferRequest{Entries: []*Entry{validEntry("s2:qon:2:a1", 2), validEntry("s2:qon:2:b2", 2)}})
	if _, err := DecodeOffer(two, 1); err == nil {
		t.Error("DecodeOffer ignored maxEntries")
	}
}

func TestDigestRangesDetectsDivergence(t *testing.T) {
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("s2:qon:%08x", i*2654435761)
	}
	full := []Range{{0, 0}}
	d1 := DigestRanges(keys, full)
	if d1[0].Count != len(keys) {
		t.Fatalf("full-circle digest counted %d of %d keys", d1[0].Count, len(keys))
	}
	// Order independence: a permuted key list digests identically.
	rev := make([]string, len(keys))
	for i, k := range keys {
		rev[len(keys)-1-i] = k
	}
	if d2 := DigestRanges(rev, full); d2[0] != d1[0] {
		t.Fatalf("digest is order-dependent: %+v vs %+v", d1[0], d2[0])
	}
	// Divergence: dropping one key changes the digest.
	if d3 := DigestRanges(keys[1:], full); d3[0].Digest == d1[0].Digest {
		t.Fatal("digest did not change when a key was dropped")
	}
	// Range partition: two complementary halves cover every key once.
	mid := uint64(1) << 63
	halves := DigestRanges(keys, []Range{{0, mid}, {mid, 0}})
	if halves[0].Count+halves[1].Count != len(keys) {
		t.Fatalf("complementary ranges cover %d keys, want %d", halves[0].Count+halves[1].Count, len(keys))
	}
	if halves[0].Count == 0 || halves[1].Count == 0 {
		t.Fatalf("splitmix-scattered keys all fell in one half: %+v", halves)
	}
}

// The bisecting DigestRanges must agree exactly with the naive
// per-key Contains scan it replaced, over random keys and every range
// shape (contiguous, wrapping, full circle, empty).
func TestDigestRangesMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	naive := func(keys []string, ranges []Range) []RangeDigest {
		acc := make([]uint64, len(ranges))
		counts := make([]int, len(ranges))
		for _, k := range keys {
			h := KeyHash(k)
			for i, r := range ranges {
				if r.Contains(h) {
					acc[i] ^= mix64(h)
					counts[i]++
				}
			}
		}
		out := make([]RangeDigest, len(ranges))
		for i := range out {
			out[i] = RangeDigest{Digest: strconv.FormatUint(acc[i], 16), Count: counts[i]}
		}
		return out
	}
	for trial := 0; trial < 50; trial++ {
		keys := make([]string, rng.Intn(40))
		for i := range keys {
			keys[i] = fmt.Sprintf("s2:qon:%d:%08x", 2+rng.Intn(9), rng.Uint32())
		}
		ranges := make([]Range, 1+rng.Intn(8))
		for i := range ranges {
			switch rng.Intn(4) {
			case 0: // full circle
				p := rng.Uint64()
				ranges[i] = Range{p, p}
			case 1: // wrap through zero
				lo, hi := rng.Uint64()|1<<63, rng.Uint64()&^(1<<63)
				ranges[i] = Range{lo, hi}
			default:
				lo, hi := rng.Uint64(), rng.Uint64()
				if lo > hi {
					lo, hi = hi, lo
				}
				if lo == hi {
					hi++
				}
				ranges[i] = Range{lo, hi}
			}
		}
		got, want := DigestRanges(keys, ranges), naive(keys, ranges)
		for i := range ranges {
			if got[i] != want[i] {
				t.Fatalf("trial %d range %d (%x,%x]: bisect %+v != naive %+v over %d keys",
					trial, i, ranges[i].Lo, ranges[i].Hi, got[i], want[i], len(keys))
			}
		}
	}
}

func TestKeyHashScatters(t *testing.T) {
	// Near-identical keys (the vnode naming pattern) must not cluster:
	// with the finalizer, 64 suffixes split around the midpoint.
	lowHalf := 0
	for i := 0; i < 64; i++ {
		if KeyHash(fmt.Sprintf("http://w1:8081#%d", i)) < 1<<63 {
			lowHalf++
		}
	}
	if lowHalf < 16 || lowHalf > 48 {
		t.Fatalf("vnode hashes cluster: %d/64 in the low half", lowHalf)
	}
}
