package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"approxqo/internal/chaos"
	"approxqo/internal/engine"
	"approxqo/internal/trace"
)

// A repeated identical request must be served from the cache: marked
// cached, full rung, not degraded, with the exact same certified cost,
// and counted as one miss plus one hit.
func TestCacheHitServesCertifiedResult(t *testing.T) {
	reg := trace.NewRegistry()
	s, err := New(Config{MaxConcurrent: 2, QueueDepth: 4, Metrics: reg, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"job":{"workload":{"shape":"chain","n":7,"seed":11}}}`
	resp, data := postJSON(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp.StatusCode, data)
	}
	first := decodeResult(t, data)
	if first.Cached {
		t.Fatal("first request cannot be a cache hit")
	}
	if first.Report.Best == nil || !first.Report.Best.Certified {
		t.Fatalf("first request not certified: %s", data)
	}

	resp, data = postJSON(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d %s", resp.StatusCode, data)
	}
	second := decodeResult(t, data)
	if !second.Cached {
		t.Fatalf("identical request not served from cache: %s", data)
	}
	if second.Degraded || second.Rung != "full" {
		t.Fatalf("cache hit served rung %q degraded=%v", second.Rung, second.Degraded)
	}
	if !second.Report.Best.Cost.Equal(first.Report.Best.Cost) {
		t.Fatalf("cached cost %v differs from computed %v", second.Report.Best.Cost, first.Report.Best.Cost)
	}
	if h, m := reg.Counter(MetricCacheHits).Value(), reg.Counter(MetricCacheMisses).Value(); h != 1 || m != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", h, m)
	}

	// A different instance (new seed) must miss.
	resp, data = postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":7,"seed":12}}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("third request: %d %s", resp.StatusCode, data)
	}
	if third := decodeResult(t, data); third.Cached {
		t.Fatal("distinct instance served from cache")
	}
}

// timeout_ms must not split the cache key: a certified result is valid
// for any later budget.
func TestCacheKeyIgnoresTimeout(t *testing.T) {
	a, err := DecodeRequest([]byte(`{"job":{"workload":{"shape":"star","n":6,"seed":3},"timeout_ms":100}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeRequest([]byte(`{"job":{"workload":{"shape":"star","n":6,"seed":3},"timeout_ms":9000}}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() == "" || a.Key() != b.Key() {
		t.Fatalf("keys differ across budgets: %q vs %q", a.Key(), b.Key())
	}
	c, err := DecodeRequest([]byte(`{"job":{"workload":{"shape":"star","n":6,"seed":4}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() == c.Key() {
		t.Fatal("distinct instances share a cache key")
	}
}

// CacheSize < 0 disables caching entirely; chaos injection bypasses an
// enabled cache — fault behaviour must stay per-request.
func TestCacheDisabledAndChaosBypass(t *testing.T) {
	reg := trace.NewRegistry()
	s, err := New(Config{MaxConcurrent: 2, CacheSize: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if s.cache != nil {
		t.Fatal("CacheSize < 0 left the cache enabled")
	}
	ts := httptest.NewServer(s.Handler())
	body := `{"job":{"workload":{"shape":"chain","n":6,"seed":1}}}`
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, resp.StatusCode, data)
		}
		if decodeResult(t, data).Cached {
			t.Fatal("disabled cache served a hit")
		}
	}
	ts.Close()
	if h, m := reg.Counter(MetricCacheHits).Value(), reg.Counter(MetricCacheMisses).Value(); h != 0 || m != 0 {
		t.Fatalf("disabled cache touched metrics: hits=%d misses=%d", h, m)
	}

	reg = trace.NewRegistry()
	s, err = New(Config{
		MaxConcurrent: 2, Metrics: reg,
		ChaosSpec:    "stall:kbz",
		ChaosOptions: []chaos.Option{chaos.WithStall(time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("chaos request %d: %d %s", i, resp.StatusCode, data)
		}
		if decodeResult(t, data).Cached {
			t.Fatal("chaos-mode request served from cache")
		}
	}
	if h, m := reg.Counter(MetricCacheHits).Value(), reg.Counter(MetricCacheMisses).Value(); h != 0 || m != 0 {
		t.Fatalf("chaos bypass touched cache metrics: hits=%d misses=%d", h, m)
	}
}

// LRU behaviour of the raw cache: capacity bound, eviction order,
// refresh on get.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	rep := func(n int) *engine.Report { return &engine.Report{N: n} }
	c.put("a", "raw-a", rep(1), nil, nil)
	c.put("b", "raw-b", rep(2), nil, nil)
	if _, _, ok := c.get("a", nil); !ok { // refresh a; b becomes LRU
		t.Fatal("a evicted below capacity")
	}
	c.put("c", "raw-c", rep(3), nil, nil)
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, cap 2", c.len())
	}
	if _, _, ok := c.get("b", nil); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, _, ok := c.get("a", nil); !ok {
		t.Fatal("refreshed entry a was evicted")
	}
	if got, raw, ok := c.get("c", nil); !ok || got.N != 3 || raw != "raw-c" {
		t.Fatalf("c lookup = %+v, %q, %v", got, raw, ok)
	}
	c.put("c", "raw-c2", rep(30), nil, nil) // overwrite in place
	if got, raw, _ := c.get("c", nil); got.N != 30 || raw != "raw-c2" {
		t.Fatalf("overwrite kept stale report N=%d rawKey=%q", got.N, raw)
	}
}

// Exactly one concurrent joiner per key leads; everyone else unblocks
// when the leader leaves.
func TestFlightGroupSingleLeader(t *testing.T) {
	g := newFlightGroup()
	const workers = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	leaders := 0
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call, leader := g.join("k")
			if leader {
				mu.Lock()
				leaders++
				mu.Unlock()
				time.Sleep(5 * time.Millisecond)
				g.leave("k", call)
				return
			}
			<-call.done
		}()
	}
	wg.Wait()
	if leaders == 0 {
		t.Fatal("no leader elected")
	}
	// Distinct keys never share a flight.
	c1, l1 := g.join("x")
	_, l2 := g.join("y")
	if !l1 || !l2 {
		t.Fatal("distinct keys shared a flight")
	}
	g.leave("x", c1)
}

// Concurrency smoke under -race: identical requests hammered in
// parallel are each answered 200, every one accounted as exactly one
// cache hit or miss, and at most a handful of misses (duplicates are
// suppressed or served from cache — never lost).
func TestCacheConcurrentIdenticalRequests(t *testing.T) {
	reg := trace.NewRegistry()
	// DegradeAt above the client count keeps every request at the full
	// rung, so whichever request leads the flight stores its result.
	s, err := New(Config{MaxConcurrent: 4, QueueDepth: 64, DegradeAt: 64, Metrics: reg, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 12
	body := `{"job":{"workload":{"shape":"star","n":7,"seed":21},"timeout_ms":20000}}`
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL, body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, data)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	h := reg.Counter(MetricCacheHits).Value()
	m := reg.Counter(MetricCacheMisses).Value()
	if h+m != clients {
		t.Fatalf("hits+misses = %d+%d, want %d (every request exactly one lookup outcome)", h, m, clients)
	}
	if m < 1 || h < 1 {
		t.Fatalf("hits/misses = %d/%d: want at least one of each", h, m)
	}
}
