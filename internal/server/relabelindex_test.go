package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"regexp"
	"sort"
	"testing"

	"approxqo/internal/engine"
	"approxqo/internal/qon"
	"approxqo/internal/trace"
	"approxqo/internal/workload"
)

// timingFields matches the two timing fields of a result document.
var timingFields = regexp.MustCompile(`"(wall_ms|queue_ms)":[-+.0-9eE]+`)

// untimedBytes returns doc with its timing fields zeroed, so two hit
// documents compare byte for byte.
func untimedBytes(doc []byte) []byte {
	return timingFields.ReplaceAll(doc, []byte(`"$1":0`))
}

// For every workload family, a relabeled body served through the
// relabel index writes the same document bytes, timing aside, as the
// same body served through the canonical search. Each relabeling is
// served twice: first after the entry is re-stored bare, as a replica
// offer would leave it, so only the canonical path can serve it (and
// attaches the relabel digest), then again through the index. The
// symmetric cliquered families never refine discretely and take the
// canonical path both times.
func TestRelabelHitMatchesCanonicalHit(t *testing.T) {
	reg, tr := trace.NewRegistry(), trace.New()
	s, err := New(Config{MaxConcurrent: 2, Metrics: reg, Tracer: tr, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, fam := range workload.Families() {
		in, err := (&workload.Spec{Shape: string(fam), N: 10, Seed: 2}).Generate()
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		_, _, discrete := qon.RelabelID(in)
		symmetric := fam == workload.CliqueredYes || fam == workload.CliqueredNo
		if discrete == symmetric {
			t.Fatalf("%s: RelabelID ok=%v", fam, discrete)
		}
		mustServe(t, h, jobBody(t, in)) // miss: stores the entry
		key := (&Request{Job: &Job{Instance: in}}).Key()
		rng := rand.New(rand.NewSource(int64(len(fam))))
		for k := 0; k < 3; k++ {
			perm := rng.Perm(in.N())
			if sort.IntsAreSorted(perm) {
				continue
			}
			rel := qon.Relabel(in, perm)
			body := jobBody(t, rel)
			rep, raw, ok := s.cache.get(key, nil)
			if !ok {
				t.Fatalf("%s: entry not cached", fam)
			}
			s.cache.put(key, raw, rep, nil, nil)
			before := reg.Counter(MetricRelabelHits).Value()
			viaCanon, canonDoc := mustServe(t, h, body)
			viaIndex, indexDoc := mustServe(t, h, body)
			relabelHits := reg.Counter(MetricRelabelHits).Value() - before
			if !viaCanon.Cached || !viaIndex.Cached {
				t.Fatalf("%s: cached=%v then %v, want two hits", fam, viaCanon.Cached, viaIndex.Cached)
			}
			if discrete != (relabelHits == 1) || relabelHits > 1 {
				t.Fatalf("%s: %d relabel hits on the second serve, discrete=%v", fam, relabelHits, discrete)
			}
			if a, b := untimedBytes(canonDoc), untimedBytes(indexDoc); !bytes.Equal(a, b) {
				t.Fatalf("%s: canonical and relabel-index documents differ:\n%s\n%s", fam, a, b)
			}
			if !rel.ValidSequence(qon.Sequence(viaIndex.Report.Best.Sequence)) {
				t.Fatalf("%s: served sequence %v invalid for the request", fam, viaIndex.Report.Best.Sequence)
			}
		}
	}
	paths := map[any]int{}
	for _, sp := range tr.Snapshot() {
		if sp.Name == SpanRequest {
			paths[sp.Fields["cache_path"]]++
		}
	}
	if paths[cachePathRelabel] == 0 || paths[cachePathCanonical] <= paths[cachePathRelabel] {
		t.Fatalf("request spans by cache_path: %v", paths)
	}
}

// jobBody encodes in as an /optimize body.
func jobBody(t *testing.T, in *qon.Instance) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{"job": map[string]any{"instance": in}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// The relabel index stays bounded by the LRU and coherent with it: a
// store indexes its digest, a hit attaches one only to an entry that
// has none, and replacing, LRU eviction and explicit eviction all drop
// it.
func TestResultCacheRelabelIndex(t *testing.T) {
	c := newResultCache(2)
	rep := func(n int) *engine.Report { return &engine.Report{N: n} }
	rl := func(b byte) *relabelSource { return &relabelSource{digest: [sha256.Size]byte{b}, fp: "fp"} }
	reachable := func(b byte) (string, bool) {
		key, _, _, _, ok := c.getRelabel([sha256.Size]byte{b})
		return key, ok
	}

	c.put("a", "raw-a", rep(1), nil, rl(1))
	c.put("b", "raw-b", rep(2), nil, nil) // replica offer
	if key, ok := reachable(1); !ok || key != "a" {
		t.Fatalf("stored digest reaches %q, %v", key, ok)
	}
	c.get("b", rl(2)) // the first hit attaches
	c.get("b", rl(3)) // later ones do not replace it
	if key, ok := reachable(2); !ok || key != "b" {
		t.Fatal("a hit did not attach its digest to a bare entry")
	}
	if _, ok := reachable(3); ok {
		t.Fatal("a hit replaced an attached digest")
	}
	c.put("a", "raw-a2", rep(10), nil, nil) // replaced bare
	if _, ok := reachable(1); ok {
		t.Fatal("replaced entry kept its old digest")
	}
	c.get("a", rl(1))
	c.put("c", "raw-c", rep(3), nil, rl(4)) // evicts b (a was refreshed)
	if _, ok := reachable(2); ok {
		t.Fatal("LRU-evicted entry still reachable by digest")
	}
	c.evict("c")
	if _, ok := reachable(4); ok {
		t.Fatal("evicted entry still reachable by digest")
	}
	if c.len() != 1 || c.relabelLen() != 1 {
		t.Fatalf("cache holds %d entries and %d relabel digests, want 1 and 1", c.len(), c.relabelLen())
	}
}
