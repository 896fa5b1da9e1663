package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"approxqo/internal/cluster/replica"
	"approxqo/internal/engine"
	"approxqo/internal/num"
	"approxqo/internal/trace"
)

// testClusterSecret authenticates test replication traffic.
const testClusterSecret = "test-secret"

// replicaEntry builds a distinct valid certified entry (i varies the
// fingerprint and cost).
func replicaEntry(i int) *replica.Entry {
	n := 3
	seq := make([]int, n)
	for k := range seq {
		seq[k] = (k + 1) % n
	}
	return &replica.Entry{
		Key:    replica.Key("qon", 3, fmt.Sprintf("%04x", i)),
		RawKey: fmt.Sprintf("raw-%d", i),
		Report: &engine.Report{
			Model: "qon",
			N:     n,
			Best: &engine.BestRecord{
				Winner:    "dp",
				Sequence:  seq,
				Cost:      num.FromInt64(int64(100 + i)),
				Certified: true,
			},
		},
	}
}

func postCacheJSON(t *testing.T, url string, in, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(replica.AuthHeader, testClusterSecret)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
	}
	return resp
}

// POST /cache/offer re-validates every entry at the trust boundary:
// certified entries are stored, tampered ones rejected per entry
// without voiding the rest of the chunk.
func TestCacheOfferValidatesAtTrustBoundary(t *testing.T) {
	reg := trace.NewRegistry()
	s, err := New(Config{MaxConcurrent: 2, Metrics: reg, ClusterSecret: testClusterSecret})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	good := replicaEntry(1)
	uncertified := replicaEntry(2)
	uncertified.Report.Best.Certified = false
	badPerm := replicaEntry(3)
	badPerm.Report.Best.Sequence = []int{0, 0, 2}

	var or replica.OfferResponse
	resp := postCacheJSON(t, ts.URL+"/cache/offer",
		&replica.OfferRequest{Entries: []*replica.Entry{good, uncertified, badPerm}}, &or)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("offer status %d", resp.StatusCode)
	}
	if or.Accepted != 1 || or.Rejected != 2 {
		t.Fatalf("accepted/rejected = %d/%d, want 1/2", or.Accepted, or.Rejected)
	}
	if s.cache.len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", s.cache.len())
	}
	if rep, raw, ok := s.cache.get(good.Key, nil); !ok || raw != good.RawKey || !rep.Best.Certified {
		t.Fatalf("stored entry lookup = %v/%q/%v", rep, raw, ok)
	}
	if a, r := reg.Counter(MetricCacheOfferAccepted).Value(), reg.Counter(MetricCacheOfferRejected).Value(); a != 1 || r != 2 {
		t.Fatalf("offer metrics accepted/rejected = %d/%d", a, r)
	}

	// Malformed body → 400; GET → 405.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/cache/offer", bytes.NewReader([]byte(`{"entries":[]}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(replica.AuthHeader, testClusterSecret)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty offer status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/cache/offer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET offer status %d, want 405", resp.StatusCode)
	}
}

// The /cache/* surface is gated on the cache being enabled.
func TestCacheEndpointsDisabledCache(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 2, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/cache/offer", "/cache/digest", "/cache/keys", "/cache/export"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(`{}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s with disabled cache: status %d, want 503", path, resp.StatusCode)
		}
	}
}

// digest/keys/export round trip: digests over the full ring reflect
// the stored key set, keys enumerate it, export returns entries that
// re-validate — the repair pull path end to end.
func TestCacheDigestKeysExportRoundTrip(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 2, ClusterSecret: testClusterSecret})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var want []string
	for i := 0; i < 5; i++ {
		ent := replicaEntry(i)
		s.cache.put(ent.Key, ent.RawKey, ent.Report, nil, nil)
		want = append(want, ent.Key)
	}

	full := []replica.Range{{Lo: 0, Hi: 0}} // full circle
	var dr replica.DigestResponse
	if resp := postCacheJSON(t, ts.URL+"/cache/digest", &replica.DigestRequest{Ranges: full}, &dr); resp.StatusCode != http.StatusOK {
		t.Fatalf("digest status %d", resp.StatusCode)
	}
	if len(dr.Digests) != 1 || dr.Digests[0].Count != 5 {
		t.Fatalf("digest = %+v, want one range counting 5", dr.Digests)
	}
	if local := replica.DigestRanges(want, full); dr.Digests[0].Digest != local[0].Digest {
		t.Fatalf("endpoint digest %q != local digest %q", dr.Digests[0].Digest, local[0].Digest)
	}

	var kr replica.KeysResponse
	if resp := postCacheJSON(t, ts.URL+"/cache/keys", &replica.KeysRequest{Range: full[0]}, &kr); resp.StatusCode != http.StatusOK {
		t.Fatalf("keys status %d", resp.StatusCode)
	}
	if len(kr.Keys) != 5 {
		t.Fatalf("keys returned %d, want 5", len(kr.Keys))
	}
	// An arc ending at one key's hash returns that key and nothing
	// outside the arc.
	h := replica.KeyHash(want[0])
	arc := replica.Range{Lo: h - 1<<60, Hi: h}
	var ka replica.KeysResponse
	if resp := postCacheJSON(t, ts.URL+"/cache/keys", &replica.KeysRequest{Range: arc}, &ka); resp.StatusCode != http.StatusOK {
		t.Fatalf("arc keys status %d", resp.StatusCode)
	}
	found := false
	for _, k := range ka.Keys {
		found = found || k == want[0]
		if !arc.Contains(replica.KeyHash(k)) {
			t.Fatalf("arc keys returned %q, off the arc", k)
		}
	}
	if !found || len(ka.Keys) == 5 {
		t.Fatalf("arc keys = %v, want %q and not the whole cache", ka.Keys, want[0])
	}

	var er replica.ExportResponse
	if resp := postCacheJSON(t, ts.URL+"/cache/export", &replica.ExportRequest{Keys: kr.Keys}, &er); resp.StatusCode != http.StatusOK {
		t.Fatalf("export status %d", resp.StatusCode)
	}
	if len(er.Entries) != 5 {
		t.Fatalf("export returned %d entries, want 5", len(er.Entries))
	}
	for _, ent := range er.Entries {
		if err := ent.Validate(); err != nil {
			t.Fatalf("exported entry %q fails validation: %v", ent.Key, err)
		}
	}

	// Absent keys are omitted, not errors.
	var er2 replica.ExportResponse
	if resp := postCacheJSON(t, ts.URL+"/cache/export", &replica.ExportRequest{Keys: []string{"qon:missing", want[0]}}, &er2); resp.StatusCode != http.StatusOK {
		t.Fatalf("partial export status %d", resp.StatusCode)
	}
	if len(er2.Entries) != 1 || er2.Entries[0].Key != want[0] {
		t.Fatalf("partial export = %+v, want just %q", er2.Entries, want[0])
	}
}

// A certified /optimize store fans out to every peer named in
// X-Replicate-To — asynchronously, with the canonical-space copy that
// re-validates at the receiving trust boundary.
func TestReplicateFanOutOnStore(t *testing.T) {
	var mu sync.Mutex
	var got []*replica.Entry
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		off, err := replica.DecodeOffer(body, 0)
		if err != nil {
			t.Errorf("peer received undecodable offer: %v", err)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		mu.Lock()
		got = append(got, off.Entries...)
		mu.Unlock()
		json.NewEncoder(w).Encode(&replica.OfferResponse{Accepted: len(off.Entries)})
	}))
	defer peer.Close()

	reg := trace.NewRegistry()
	s, err := New(Config{MaxConcurrent: 2, Metrics: reg, Seed: 7, ClusterSecret: testClusterSecret})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/optimize",
		bytes.NewReader([]byte(`{"job":{"workload":{"shape":"chain","n":6,"seed":3}}}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ReplicateToHeader, peer.URL)
	req.Header.Set(replica.AuthHeader, testClusterSecret)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status %d: %s", resp.StatusCode, data)
	}
	res := decodeResult(t, data)
	if res.Report.Best == nil || !res.Report.Best.Certified {
		t.Fatalf("result not certified: %s", data)
	}

	// The sender counts an offer as sent only after the peer's response
	// arrives, which can be after the peer has recorded it: wait for both.
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 && reg.Counter(MetricReplicateSent).Value() >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer never received the replicated entry or the send was not counted (received=%d sent=%d errors=%d dropped=%d)", n,
				reg.Counter(MetricReplicateSent).Value(),
				reg.Counter(MetricReplicateErrors).Value(),
				reg.Counter(MetricReplicateDropped).Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	ent := got[0]
	mu.Unlock()
	if err := ent.Validate(); err != nil {
		t.Fatalf("replicated entry fails trust-boundary validation: %v", err)
	}
	if wantKey := replica.Key("qon", 6, res.Fingerprint); ent.Key != wantKey {
		t.Fatalf("replicated key %q, want %q", ent.Key, wantKey)
	}
	if reg.Counter(MetricReplicateSent).Value() < 1 {
		t.Fatal("replicate.sent not counted")
	}
}

// The /cache/* surface refuses unauthenticated requests: no secret,
// a wrong secret, and a server with no configured secret all yield
// 403 — the replication surface is never open to arbitrary clients.
func TestCacheEndpointsRequireClusterSecret(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 2, ClusterSecret: testClusterSecret})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	paths := []string{"/cache/offer", "/cache/digest", "/cache/keys", "/cache/export"}
	for _, path := range paths {
		for _, secret := range []string{"", "wrong-secret"} {
			req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader([]byte(`{}`)))
			if err != nil {
				t.Fatal(err)
			}
			if secret != "" {
				req.Header.Set(replica.AuthHeader, secret)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusForbidden {
				t.Fatalf("%s with secret %q: status %d, want 403", path, secret, resp.StatusCode)
			}
		}
	}

	// A worker with no secret configured keeps the surface closed even
	// for requests that carry one — nothing can authenticate.
	open, err := New(Config{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(open.Handler())
	defer ts2.Close()
	req, err := http.NewRequest(http.MethodPost, ts2.URL+"/cache/offer", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(replica.AuthHeader, "anything")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("secretless worker /cache/offer: status %d, want 403", resp.StatusCode)
	}
}

// X-Replicate-To from an unauthenticated client is ignored: the worker
// must not POST cache offers at URLs an arbitrary request names (the
// SSRF primitive the cluster secret closes).
func TestReplicateToIgnoredWithoutSecret(t *testing.T) {
	var hits atomic.Int32
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		json.NewEncoder(w).Encode(&replica.OfferResponse{})
	}))
	defer peer.Close()

	reg := trace.NewRegistry()
	s, err := New(Config{MaxConcurrent: 2, Metrics: reg, Seed: 7, ClusterSecret: testClusterSecret})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, secret := range []string{"", "wrong-secret"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/optimize",
			bytes.NewReader([]byte(`{"job":{"workload":{"shape":"chain","n":6,"seed":3}}}`)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(ReplicateToHeader, peer.URL)
		if secret != "" {
			req.Header.Set(replica.AuthHeader, secret)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("optimize with secret %q: status %d", secret, resp.StatusCode)
		}
	}
	// The request itself succeeded (and stored), so any fan-out would
	// have launched by now; give the async pool a moment to prove it
	// stays quiet.
	time.Sleep(50 * time.Millisecond)
	if n := hits.Load(); n != 0 {
		t.Fatalf("unauthenticated X-Replicate-To reached the peer %d times", n)
	}
	if sent := reg.Counter(MetricReplicateSent).Value(); sent != 0 {
		t.Fatalf("replicate.sent = %d, want 0", sent)
	}
}

// A poisoned cache entry — a certified report stored under a key whose
// instance is a different size — must be served as a miss, evicted and
// re-run, never panicking the hit path's label remap.
func TestCacheHitMismatchedEntryEvictedNotServed(t *testing.T) {
	reg := trace.NewRegistry()
	s, err := New(Config{MaxConcurrent: 2, Metrics: reg, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Resolve the real cache key of a 6-relation request, then plant a
	// self-consistent 3-relation certified report under it (what a
	// malicious offer would have stored before key↔report binding).
	body := []byte(`{"job":{"workload":{"shape":"chain","n":6,"seed":3}}}`)
	req, err := DecodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	key := req.Key()
	if key == "" {
		t.Fatal("no cache key resolved")
	}
	poison := replicaEntry(1).Report // n=3, certified
	s.cache.put(key, "poison-raw", poison, nil, nil)

	resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status %d: %s", resp.StatusCode, data)
	}
	res := decodeResult(t, data)
	if res.Cached {
		t.Fatal("poisoned entry was served as a cache hit")
	}
	if res.N != 6 || res.Report.Best == nil || !res.Report.Best.Certified || len(res.Report.Best.Sequence) != 6 {
		t.Fatalf("re-run result wrong: %s", data)
	}
	if v := reg.Counter(MetricCacheMismatch).Value(); v != 1 {
		t.Fatalf("cache.mismatch = %d, want 1", v)
	}
	// The corrupt entry is gone; the re-run's real result replaced it.
	if rep, _, ok := s.cache.get(key, nil); !ok || rep.N != 6 {
		t.Fatalf("cache after mismatch: ok=%v n=%d, want the 6-relation re-run", ok, rep.N)
	}
}

// parseReplicaTo trims, drops empties and caps the peer count — a
// hostile header must not fan out unboundedly.
func TestParseReplicaTo(t *testing.T) {
	if got := parseReplicaTo(""); got != nil {
		t.Fatalf("empty header parsed to %v", got)
	}
	got := parseReplicaTo(" http://a:1/ ,, http://b:2 ")
	if want := []string{"http://a:1", "http://b:2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	many := "http://a,http://b,http://c,http://d,http://e,http://f"
	if got := parseReplicaTo(many); len(got) != maxReplicaPeers {
		t.Fatalf("hostile header parsed to %d peers, want cap %d", len(got), maxReplicaPeers)
	}
}
