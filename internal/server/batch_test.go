package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"approxqo/internal/num"
	"approxqo/internal/qon"
	"approxqo/internal/trace"
	"approxqo/internal/workload"
)

// costClose compares costs up to a 2^-200 relative error: remapping a
// join sequence between label spaces reassociates the same 256-bit
// products, which can shift the final rounding by an ulp.
func costClose(a, b num.Num) bool {
	if a.Equal(b) {
		return true
	}
	hi, lo := a.Max(b), a.Min(b)
	return hi.Sub(lo).Mul(num.Pow2(200)).LessEq(hi)
}

func testInstance(t *testing.T, n int, seed int64) *qon.Instance {
	t.Helper()
	in, err := workload.Generate(workload.Params{N: n, Shape: workload.Chain, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func batchBody(t *testing.T, jobs ...map[string]any) string {
	t.Helper()
	data, err := json.Marshal(map[string]any{"jobs": jobs})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func postBatch(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/optimize/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodeBatch(t *testing.T, data []byte) *BatchResponse {
	t.Helper()
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatalf("decoding batch response: %v\n%s", err, data)
	}
	return &br
}

// The acceptance case of the batch API: k relabeled copies of one
// instance are one admission group, one engine run, and k certified
// results in job order — each with a join sequence that is
// permutation-valid for its own copy and costs the same.
func TestBatchDedupRelabeledCopies(t *testing.T) {
	reg := trace.NewRegistry()
	s, err := New(Config{MaxConcurrent: 4, DegradeAt: 16, Metrics: reg, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const k = 5
	base := testInstance(t, 7, 31)
	rng := rand.New(rand.NewSource(77))
	copies := make([]*qon.Instance, k)
	copies[0] = base
	jobs := make([]map[string]any, k)
	jobs[0] = map[string]any{"instance": base, "timeout_ms": 20000}
	for i := 1; i < k; i++ {
		copies[i] = qon.Relabel(base, rng.Perm(base.N()))
		jobs[i] = map[string]any{"instance": copies[i], "timeout_ms": 20000}
	}

	resp, data := postBatch(t, ts.URL, batchBody(t, jobs...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, data)
	}
	br := decodeBatch(t, data)
	if br.Jobs != k || br.Shapes != 1 {
		t.Fatalf("jobs/shapes = %d/%d, want %d/1", br.Jobs, br.Shapes, k)
	}
	if runs := s.Engine().Health().Runs; runs != 1 {
		t.Fatalf("engine ran %d times for %d relabeled copies, want 1", runs, k)
	}
	if len(br.Results) != k {
		t.Fatalf("got %d results, want %d", len(br.Results), k)
	}
	var leaderCost num.Num
	for i, item := range br.Results {
		if item.Index != i {
			t.Fatalf("result %d carries index %d", i, item.Index)
		}
		if item.Error != nil {
			t.Fatalf("job %d failed: %+v", i, item.Error)
		}
		res := item.Result
		if res == nil || res.Report == nil || res.Report.Best == nil {
			t.Fatalf("job %d has no report", i)
		}
		if !res.Report.Best.Certified {
			t.Fatalf("job %d result not certified", i)
		}
		if res.Fingerprint == "" || res.Fingerprint != br.Results[0].Result.Fingerprint {
			t.Fatalf("job %d fingerprint %q differs from leader's", i, res.Fingerprint)
		}
		if (i == 0) == res.Cached {
			t.Fatalf("job %d cached=%v; want leader fresh, mates cached", i, res.Cached)
		}
		seq := qon.Sequence(res.Report.Best.Sequence)
		if !copies[i].ValidSequence(seq) {
			t.Fatalf("job %d sequence %v not a valid permutation for its copy", i, seq)
		}
		cost := copies[i].Cost(seq)
		if !costClose(cost, res.Report.Best.Cost) {
			t.Fatalf("job %d: sequence cost %v does not match reported %v", i, cost, res.Report.Best.Cost)
		}
		if i == 0 {
			leaderCost = cost
		} else if !costClose(cost, leaderCost) {
			t.Fatalf("job %d cost %v differs from leader cost %v", i, cost, leaderCost)
		}
	}
	if shapes := reg.Counter(MetricBatchShapes).Value(); shapes != 1 {
		t.Fatalf("batch shapes counter = %d, want 1", shapes)
	}
	if jobsN := reg.Counter(MetricBatchJobs).Value(); jobsN != k {
		t.Fatalf("batch jobs counter = %d, want %d", jobsN, k)
	}
}

// One invalid job yields a per-job error document; the rest of the
// batch is served normally.
func TestBatchIsolatesInvalidJobs(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := batchBody(t,
		map[string]any{"workload": map[string]any{"shape": "chain", "n": 6, "seed": 1}},
		map[string]any{"model": "nonsense"},
		map[string]any{"workload": map[string]any{"shape": "star", "n": 6, "seed": 2}},
	)
	resp, data := postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, data)
	}
	br := decodeBatch(t, data)
	if br.Jobs != 3 {
		t.Fatalf("jobs = %d, want 3", br.Jobs)
	}
	if br.Results[0].Error != nil || br.Results[0].Result == nil {
		t.Fatalf("job 0 should have succeeded: %+v", br.Results[0].Error)
	}
	if br.Results[1].Error == nil || br.Results[1].Error.Kind != "bad_request" {
		t.Fatalf("job 1 should carry a bad_request error, got %+v", br.Results[1])
	}
	if br.Results[2].Error != nil || br.Results[2].Result == nil {
		t.Fatalf("job 2 should have succeeded: %+v", br.Results[2].Error)
	}
}

// Batch-level failures: wrong method, malformed JSON, empty and
// oversized job arrays.
func TestBatchLevelErrors(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 2, MaxBatchJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/optimize/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: %d, want 405", resp.StatusCode)
	}
	for _, bad := range []string{
		`{"jobs": []}`,
		`{"jobs": "nope"}`,
		`{}`,
		batchBody(t,
			map[string]any{"workload": map[string]any{"shape": "chain", "n": 6}},
			map[string]any{"workload": map[string]any{"shape": "chain", "n": 7}},
			map[string]any{"workload": map[string]any{"shape": "chain", "n": 8}},
		),
	} {
		resp, data := postBatch(t, ts.URL, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400 (%s)", bad, resp.StatusCode, data)
		}
	}
}

// A relabeled duplicate of a previously optimized instance is a
// canonical cache hit on /optimize: served cached, counted in
// server.cache.canonical_hits, with the sequence remapped into the
// requester's label space.
func TestCanonicalCacheHitOnRelabeledRequest(t *testing.T) {
	reg := trace.NewRegistry()
	s, err := New(Config{MaxConcurrent: 2, Metrics: reg, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	base := testInstance(t, 7, 41)
	body := func(in *qon.Instance) string {
		data, err := json.Marshal(map[string]any{"job": map[string]any{"instance": in, "timeout_ms": 20000}})
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	resp, data := postJSON(t, ts.URL, body(base))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: %d %s", resp.StatusCode, data)
	}
	first := decodeResult(t, data)
	if first.Cached || first.Fingerprint == "" {
		t.Fatalf("first request: cached=%v fingerprint=%q", first.Cached, first.Fingerprint)
	}

	rel := qon.Relabel(base, rand.New(rand.NewSource(42)).Perm(base.N()))
	resp, data = postJSON(t, ts.URL, body(rel))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("relabeled: %d %s", resp.StatusCode, data)
	}
	second := decodeResult(t, data)
	if !second.Cached {
		t.Fatalf("relabeled duplicate missed the cache: %s", data)
	}
	if second.Fingerprint != first.Fingerprint {
		t.Fatalf("fingerprints differ across relabeling: %q vs %q", second.Fingerprint, first.Fingerprint)
	}
	if ch := reg.Counter(MetricCanonicalHits).Value(); ch != 1 {
		t.Fatalf("canonical_hits = %d, want 1", ch)
	}
	seq := qon.Sequence(second.Report.Best.Sequence)
	if !rel.ValidSequence(seq) {
		t.Fatalf("cached sequence %v invalid for the relabeled instance", seq)
	}
	if !costClose(rel.Cost(seq), second.Report.Best.Cost) {
		t.Fatalf("remapped sequence cost %v does not match reported %v", rel.Cost(seq), second.Report.Best.Cost)
	}
	if !costClose(rel.Cost(seq), first.Report.Best.Cost) {
		t.Fatalf("relabeled optimum %v differs from original %v", rel.Cost(seq), first.Report.Best.Cost)
	}

	// Byte-identical replays, by contrast, are plain hits: the
	// canonical counter must not move.
	resp, data = postJSON(t, ts.URL, body(base))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: %d %s", resp.StatusCode, data)
	}
	if !decodeResult(t, data).Cached {
		t.Fatal("byte-identical replay missed the cache")
	}
	if ch := reg.Counter(MetricCanonicalHits).Value(); ch != 1 {
		t.Fatalf("canonical_hits moved on a byte-identical replay: %d", ch)
	}
}

// Regression for the byte-identity key: the same request with JSON keys
// in a different order (and different whitespace) must hit.
func TestCacheHitIgnoresJSONKeyOrder(t *testing.T) {
	reg := trace.NewRegistry()
	s, err := New(Config{MaxConcurrent: 2, Metrics: reg, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":6,"seed":9},"model":"qon","timeout_ms":20000}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: %d %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL, `{"job": {
		"timeout_ms": 20000,
		"model":      "qon",
		"workload":   {"seed": 9, "n": 6, "shape": "chain"}
	}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reordered: %d %s", resp.StatusCode, data)
	}
	if !decodeResult(t, data).Cached {
		t.Fatalf("reordered-key request missed the cache: %s", data)
	}
	if h, m := reg.Counter(MetricCacheHits).Value(), reg.Counter(MetricCacheMisses).Value(); h != 1 || m != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", h, m)
	}
}

// The unified job schema: {"job": {...}} is accepted on /optimize;
// mixing it with top-level fields, or sending those fields alone (the
// retired legacy form), is rejected with a structured error document
// naming the job envelope.
func TestJobFormAndMixedFormRejection(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":6,"seed":5}}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job form: %d %s", resp.StatusCode, data)
	}
	if res := decodeResult(t, data); res.Model != "qon" || res.Report == nil {
		t.Fatalf("job form served %s", data)
	}

	resp, data = postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":6,"seed":5}},"model":"qon"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed form: %d, want 400 (%s)", resp.StatusCode, data)
	}
	var doc ErrorDoc
	if err := json.Unmarshal(data, &doc); err != nil || doc.Error.Kind != "bad_request" {
		t.Fatalf("mixed form error doc: %s", data)
	}

	for _, body := range []string{
		`{"workload":{"shape":"chain","n":6,"seed":5}}`,
		`{"Workload":{"shape":"chain","n":6,"seed":5},"timeout_ms":100}`,
		`{}`,
		`null`,
	} {
		resp, data = postJSON(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("legacy form %s: %d, want 400 (%s)", body, resp.StatusCode, data)
		}
		doc = ErrorDoc{}
		if err := json.Unmarshal(data, &doc); err != nil || doc.Error.Kind != "bad_request" ||
			!strings.Contains(doc.Error.Message, `{"job": {...}}`) {
			t.Fatalf("legacy form %s error doc does not name the job envelope: %s", body, data)
		}
	}
}

// A batch whose jobs time out while queued yields per-job queue_deadline
// errors, not a hung or failed batch.
func TestBatchQueueDeadlinePerJob(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 1, QueueDepth: 8, DegradeAt: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only worker slot so batch groups queue.
	s.slots <- struct{}{}
	defer func() { <-s.slots }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := batchBody(t,
		map[string]any{"workload": map[string]any{"shape": "chain", "n": 6, "seed": 1}, "timeout_ms": 30},
	)
	resp, data := postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, data)
	}
	br := decodeBatch(t, data)
	if br.Results[0].Error == nil || br.Results[0].Error.Kind != "queue_deadline" {
		t.Fatalf("want per-job queue_deadline error, got %s", data)
	}
	if br.Results[0].Error.RetryAfterMS <= 0 {
		t.Fatalf("queue_deadline error carries no retry hint: %+v", br.Results[0].Error)
	}
}

// Batch jobs carry their own byte identity (the SHA-256 of the job's
// raw JSON): a byte-identical re-sent job is a plain hit, a relabeled
// one a canonical hit. Batch stores never enter the /optimize
// byte-identity index.
func TestBatchCanonicalHitAttribution(t *testing.T) {
	reg := trace.NewRegistry()
	s, err := New(Config{MaxConcurrent: 2, Metrics: reg, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	base := testInstance(t, 8, 23)
	rel := qon.Relabel(base, rand.New(rand.NewSource(9)).Perm(base.N()))
	send := func(in *qon.Instance) *Result {
		t.Helper()
		resp, data := postBatch(t, ts.URL, batchBody(t, map[string]any{"instance": in}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: %d %s", resp.StatusCode, data)
		}
		item := decodeBatch(t, data).Results[0]
		if item.Error != nil {
			t.Fatalf("job failed: %+v", item.Error)
		}
		return item.Result
	}
	if send(base).Cached {
		t.Fatal("first batch cannot hit")
	}
	if !send(base).Cached {
		t.Fatal("byte-identical re-sent job missed the cache")
	}
	if ch := reg.Counter(MetricCanonicalHits).Value(); ch != 0 {
		t.Fatalf("canonical_hits = %d after a byte-identical job, want 0", ch)
	}
	if !send(rel).Cached {
		t.Fatal("relabeled job missed the cache")
	}
	if ch := reg.Counter(MetricCanonicalHits).Value(); ch != 1 {
		t.Fatalf("canonical_hits = %d after a relabeled job, want 1", ch)
	}
	if h, b := reg.Counter(MetricCacheHits).Value(), reg.Counter(MetricBodyHits).Value(); h != 2 || b != 0 {
		t.Fatalf("hits/body_hits = %d/%d, want 2/0", h, b)
	}
	if n := s.cache.bodyLen(); n != 0 {
		t.Fatalf("batch store indexed %d body digests, want 0", n)
	}
}
