package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"approxqo/internal/chaos"
	"approxqo/internal/cluster/replica"
	"approxqo/internal/engine"
	"approxqo/internal/qon"
	"approxqo/internal/trace"
)

// hitCounts snapshots the cache counters the byte-identity index
// tests assert on.
type hitCounts struct{ hits, misses, body, canonical, mismatch int64 }

func countsOf(reg *trace.Registry) hitCounts {
	return hitCounts{
		hits:      reg.Counter(MetricCacheHits).Value(),
		misses:    reg.Counter(MetricCacheMisses).Value(),
		body:      reg.Counter(MetricBodyHits).Value(),
		canonical: reg.Counter(MetricCanonicalHits).Value(),
		mismatch:  reg.Counter(MetricCacheMismatch).Value(),
	}
}

// mustServe posts body to /optimize in-process and decodes the 200
// result document.
func mustServe(t *testing.T, h http.Handler, body []byte) (*Result, []byte) {
	t.Helper()
	rec, err := serveOptimize(h, body)
	if err != nil {
		t.Fatal(err)
	}
	return decodeResult(t, rec.Body.Bytes()), rec.Body.Bytes()
}

// untimed decodes a result document generically with its two timing
// fields removed, so documents of two hits compare whole.
func untimed(t *testing.T, doc []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "wall_ms")
	delete(m, "queue_ms")
	return m
}

// A digest hit and a canonical hit on the same body serve the same
// document, timing fields aside: the two paths share one hit helper.
// Each hit's request span names the path that served it.
func TestBodyHitMatchesCanonicalHit(t *testing.T) {
	reg, tr := trace.NewRegistry(), trace.New()
	s, err := New(Config{MaxConcurrent: 2, Metrics: reg, Tracer: tr, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// A relabeled chain, so the stored canonical sequence needs a real
	// remap back into the body's labels.
	base := testInstance(t, 9, 17)
	in := qon.Relabel(base, rand.New(rand.NewSource(5)).Perm(base.N()))
	body, err := json.Marshal(map[string]any{"job": map[string]any{"instance": in}})
	if err != nil {
		t.Fatal(err)
	}
	if first, _ := mustServe(t, h, body); first.Cached {
		t.Fatal("first request cannot be a hit")
	}

	viaBody, bodyDoc := mustServe(t, h, body)
	if c := countsOf(reg); !viaBody.Cached || c.body != 1 || c.hits != 1 {
		t.Fatalf("replay: cached=%v counts %+v, want one body hit", viaBody.Cached, c)
	}

	// Re-store the same report unindexed, as a replica offer would: the
	// same body now reaches the entry only through the canonical key.
	raw := bodyKey(body)
	key, rep, _, ok := s.cache.getBody(raw)
	if !ok {
		t.Fatal("stored body is not indexed")
	}
	s.cache.put(key, raw, rep, nil, nil)
	viaCanon, canonDoc := mustServe(t, h, body)
	if c := countsOf(reg); !viaCanon.Cached || c.body != 1 || c.hits != 2 || c.canonical != 0 {
		t.Fatalf("canonical replay: cached=%v counts %+v, want one more hit, no body or canonical-only hit", viaCanon.Cached, c)
	}
	if a, b := untimed(t, bodyDoc), untimed(t, canonDoc); !reflect.DeepEqual(a, b) {
		t.Fatalf("body hit and canonical hit documents differ:\nbody:      %s\ncanonical: %s", bodyDoc, canonDoc)
	}
	if !in.ValidSequence(qon.Sequence(viaBody.Report.Best.Sequence)) {
		t.Fatalf("body hit sequence %v invalid for the request", viaBody.Report.Best.Sequence)
	}
	var paths []any
	for _, sp := range tr.Snapshot() {
		if sp.Name == SpanRequest {
			paths = append(paths, sp.Fields["cache_path"])
		}
	}
	if want := []any{nil, cachePathBody, cachePathCanonical}; !reflect.DeepEqual(paths, want) {
		t.Fatalf("request spans carry cache_path %v, want %v", paths, want)
	}
}

// Every way an entry leaves the cache or is replaced drops its body
// digest, and a replay afterwards goes back through decode.
func TestBodyIndexEvictionCoherence(t *testing.T) {
	bodyA := optimizeBody(t, 8, 101)
	bodyB := optimizeBody(t, 9, 102)

	t.Run("lru", func(t *testing.T) {
		reg := trace.NewRegistry()
		s, err := New(Config{MaxConcurrent: 2, CacheSize: 1, Metrics: reg, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		mustServe(t, h, bodyA)
		mustServe(t, h, bodyB) // evicts A
		if n := s.cache.bodyLen(); n != 1 {
			t.Fatalf("index holds %d digests after an LRU eviction, want 1", n)
		}
		if res, _ := mustServe(t, h, bodyA); res.Cached {
			t.Fatal("replay of an evicted body was served from the cache")
		}
		if c := countsOf(reg); c.misses != 3 || c.hits != 0 {
			t.Fatalf("counts %+v, want three misses", c)
		}
		if res, _ := mustServe(t, h, bodyA); !res.Cached || countsOf(reg).body != 1 {
			t.Fatal("re-stored body was not indexed again")
		}
	})

	t.Run("mismatch", func(t *testing.T) {
		reg := trace.NewRegistry()
		s, err := New(Config{MaxConcurrent: 2, Metrics: reg, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		mustServe(t, h, bodyA)
		raw := bodyKey(bodyA)
		key, _, src, ok := s.cache.getBody(raw)
		if !ok {
			t.Fatal("stored body is not indexed")
		}
		// A wrong-size report still indexed under the body: the size
		// check must evict it, digest included, and run for real.
		s.cache.put(key, raw, replicaEntry(1).Report, src, nil)
		if res, _ := mustServe(t, h, bodyA); res.Cached || res.N != 8 {
			t.Fatalf("poisoned entry served: cached=%v n=%d", res.Cached, res.N)
		}
		if c := countsOf(reg); c.mismatch != 1 || c.misses != 2 || c.hits != 0 {
			t.Fatalf("counts %+v, want one mismatch and a second miss", c)
		}
		if res, _ := mustServe(t, h, bodyA); !res.Cached || countsOf(reg).body != 1 {
			t.Fatal("re-stored body was not indexed again")
		}
	})

	t.Run("replica-offer", func(t *testing.T) {
		reg := trace.NewRegistry()
		s, err := New(Config{MaxConcurrent: 2, Metrics: reg, Seed: 1, ClusterSecret: testClusterSecret})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		h := s.Handler()
		mustServe(t, h, bodyA)
		key, rep, _, ok := s.cache.getBody(bodyKey(bodyA))
		if !ok {
			t.Fatal("stored body is not indexed")
		}
		var or replica.OfferResponse
		offer := &replica.OfferRequest{Entries: []*replica.Entry{{Key: key, RawKey: "remote", Report: rep}}}
		if resp := postCacheJSON(t, ts.URL+"/cache/offer", offer, &or); resp.StatusCode != http.StatusOK || or.Accepted != 1 {
			t.Fatalf("offer: status %d accepted %d", resp.StatusCode, or.Accepted)
		}
		if n := s.cache.bodyLen(); n != 0 {
			t.Fatalf("index holds %d digests after a replica overwrite, want 0", n)
		}
		// The replay decodes and hits the replica's entry canonically;
		// a canonical hit never indexes its body.
		for i := 0; i < 2; i++ {
			if res, _ := mustServe(t, h, bodyA); !res.Cached {
				t.Fatalf("replay %d missed the replica's entry", i)
			}
		}
		if c := countsOf(reg); c.body != 0 || c.canonical != 2 || s.cache.bodyLen() != 0 {
			t.Fatalf("counts %+v, %d digests: want two canonical-only hits and an empty index", c, s.cache.bodyLen())
		}
	})
}

// With chaos rules set or the cache disabled, the byte-identity index
// is never consulted.
func TestBodyIndexBypass(t *testing.T) {
	body := optimizeBody(t, 7, 7)

	reg := trace.NewRegistry()
	s, err := New(Config{
		MaxConcurrent: 2, Metrics: reg,
		ChaosSpec:    "stall:kbz",
		ChaosOptions: []chaos.Option{chaos.WithStall(time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Plant an indexed entry for the body: chaos must still run it.
	planted := replicaEntry(1)
	s.cache.put(planted.Key, bodyKey(body), planted.Report, &bodySource{model: "qon", fp: "planted", perm: []int{0, 1, 2}}, nil)
	h := s.Handler()
	for i := 0; i < 2; i++ {
		if res, _ := mustServe(t, h, body); res.Cached || res.N != 7 {
			t.Fatalf("chaos request %d: cached=%v n=%d", i, res.Cached, res.N)
		}
	}
	if c := countsOf(reg); c != (hitCounts{}) {
		t.Fatalf("chaos bypass touched cache counters: %+v", c)
	}

	reg = trace.NewRegistry()
	s, err = New(Config{MaxConcurrent: 2, CacheSize: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	h = s.Handler()
	for i := 0; i < 2; i++ {
		if res, _ := mustServe(t, h, body); res.Cached {
			t.Fatalf("disabled cache served request %d", i)
		}
	}
	if c := countsOf(reg); c != (hitCounts{}) {
		t.Fatalf("disabled cache touched cache counters: %+v", c)
	}
}

// A body that fails decode is never stored, so it is never indexed:
// every repeat decodes again and gets its 400.
func TestBodyIndexInvalidBodies(t *testing.T) {
	reg := trace.NewRegistry()
	s, err := New(Config{MaxConcurrent: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, body := range []string{
		`{"job":{"workload":`,
		`{"job":{"workload":{"shape":"chain","n":99}}}`,
		`{"job":{"workload":{"shape":"chain","n":6}},"timeout_ms":5}`,
	} {
		for i := 0; i < 3; i++ {
			rec, err := serveOptimize(h, []byte(body))
			if err == nil || rec.Code != http.StatusBadRequest {
				t.Fatalf("body %q repeat %d: status %d, want 400", body, i, rec.Code)
			}
		}
	}
	if c, n := countsOf(reg), s.cache.bodyLen(); c != (hitCounts{}) || n != 0 {
		t.Fatalf("invalid bodies reached the cache: counts %+v, %d digests", c, n)
	}
	if got := reg.Counter(MetricBadRequest).Value(); got != 9 {
		t.Fatalf("bad_request = %d, want 9", got)
	}
}

// TestBodyIndexReplayNoBleed hammers concurrent byte-identical replays
// against a 4-entry cache whose working set is larger, so stores,
// LRU evictions and body hits interleave. Every response must carry
// its own request's n, fingerprint, cost and a valid sequence — a
// digest must never serve another body's entry or a stale permutation.
func TestBodyIndexReplayNoBleed(t *testing.T) {
	reg := trace.NewRegistry()
	s, err := New(Config{MaxConcurrent: 4, QueueDepth: 256, DegradeAt: 256, CacheSize: 4, Metrics: reg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	type want struct {
		body        []byte
		n           int
		fingerprint string
		cost        string
	}
	ws := make([]*want, 7)
	for i := range ws {
		n := 5 + i
		w := &want{body: optimizeBody(t, n, int64(61+i)), n: n}
		res, _ := mustServe(t, h, w.body)
		if res.Fingerprint == "" || res.Report == nil || res.Report.Best == nil {
			t.Fatalf("warm response for n=%d lacks fingerprint or plan", n)
		}
		w.fingerprint, w.cost = res.Fingerprint, res.Report.Best.Cost.String()
		ws[i] = w
	}

	const (
		workers = 8
		iters   = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				// Skewed picks keep a hot set hitting while the tail evicts.
				w := ws[min(rng.Intn(len(ws)), rng.Intn(len(ws)))]
				rec, err := serveOptimize(h, w.body)
				if err != nil {
					errs <- err
					return
				}
				var res Result
				if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
					errs <- fmt.Errorf("worker %d: undecodable response: %v", g, err)
					return
				}
				if res.N != w.n || res.Fingerprint != w.fingerprint {
					errs <- fmt.Errorf("worker %d: got n=%d fp=%q, want n=%d fp=%q", g, res.N, res.Fingerprint, w.n, w.fingerprint)
					return
				}
				best := res.Report.Best
				if best == nil || best.Cost.String() != w.cost {
					errs <- fmt.Errorf("worker %d: n=%d served %+v, want cost %s", g, w.n, best, w.cost)
					return
				}
				if err := checkPerm(best.Sequence, w.n); err != nil {
					errs <- fmt.Errorf("worker %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	c := countsOf(reg)
	if c.body == 0 || c.misses <= int64(len(ws)) {
		t.Errorf("counts %+v: want body hits and evictions forcing re-runs", c)
	}
	if n := s.cache.bodyLen(); n > 4 {
		t.Errorf("index holds %d digests, cache capacity 4", n)
	}
}

// checkPerm reports whether seq is a permutation of 0..n-1.
func checkPerm(seq []int, n int) error {
	if len(seq) != n {
		return fmt.Errorf("sequence %v has %d entries, want %d", seq, len(seq), n)
	}
	seen := make([]bool, n)
	for _, v := range seq {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("sequence %v is not a permutation of 0..%d", seq, n-1)
		}
		seen[v] = true
	}
	return nil
}

// The cache's byte-identity index stays bounded by the LRU and
// coherent with it under direct put/evict traffic.
func TestResultCacheBodyIndex(t *testing.T) {
	c := newResultCache(2)
	rep := func(n int) *engine.Report { return &engine.Report{N: n} }
	src := &bodySource{model: "qon", fp: "fp"}
	c.put("a", "body-a", rep(1), src, nil)
	c.put("b", "body-b", rep(2), nil, nil) // replica offer: never indexed
	if _, _, _, ok := c.getBody("body-b"); ok {
		t.Fatal("unindexed entry reachable by digest")
	}
	if key, got, _, ok := c.getBody("body-a"); !ok || key != "a" || got.N != 1 {
		t.Fatalf("getBody(body-a) = %q, %+v, %v", key, got, ok)
	}
	c.put("a", "body-a2", rep(10), src, nil) // local re-store from another body
	if _, _, _, ok := c.getBody("body-a"); ok {
		t.Fatal("replaced entry kept its old digest")
	}
	if _, got, _, ok := c.getBody("body-a2"); !ok || got.N != 10 {
		t.Fatal("re-store did not index its own digest")
	}
	c.put("c", "body-c", rep(3), src, nil) // evicts b (a was refreshed)
	c.put("d", "body-d", rep(4), src, nil) // evicts a
	if _, _, _, ok := c.getBody("body-a2"); ok {
		t.Fatal("LRU-evicted entry still reachable by digest")
	}
	c.evict("c")
	if _, _, _, ok := c.getBody("body-c"); ok {
		t.Fatal("evicted entry still reachable by digest")
	}
	if c.len() != 1 || c.bodyLen() != 1 {
		t.Fatalf("cache holds %d entries and %d digests, want 1 and 1", c.len(), c.bodyLen())
	}
}

// The stage histograms of the serve path record one sample per
// request that pays the stage: a miss decodes, runs the relabel
// identity and the canonical labeling, and encodes, but remaps no
// cached report; a relabeled duplicate served by the relabel index
// decodes, refines, remaps and encodes once each, with no canonical
// labeling; a byte-identical replay served by the byte-identity index
// remaps and encodes only.
func TestStageHistograms(t *testing.T) {
	reg := trace.NewRegistry()
	s, err := New(Config{MaxConcurrent: 2, Metrics: reg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := optimizeBody(t, 8, 21)
	names := []string{MetricDecodeUS, MetricRelabelUS, MetricCanonUS, MetricRemapUS, MetricEncodeUS}
	step := func(name string, body []byte, wantCached bool, want ...int64) {
		t.Helper()
		before := make([]int64, len(names))
		for i, m := range names {
			before[i] = reg.Histogram(m).Count()
		}
		if res, _ := mustServe(t, h, body); res.Cached != wantCached {
			t.Fatalf("%s: cached=%v, want %v", name, res.Cached, wantCached)
		}
		for i, m := range names {
			if got := reg.Histogram(m).Count() - before[i]; got != want[i] {
				t.Fatalf("%s: recorded %d samples of %s, want %d", name, got, m, want[i])
			}
		}
	}
	step("miss", body, false, 1, 1, 1, 0, 1)
	step("relabeled hit", relabeledBodies(t, 8, 21, 1)[0], true, 1, 1, 0, 1, 1)
	step("replay", body, true, 0, 0, 0, 1, 1)
}
