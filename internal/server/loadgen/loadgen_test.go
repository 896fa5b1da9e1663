package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"approxqo/internal/server"
)

func TestBackoffBoundsAndGrowth(t *testing.T) {
	c := New("http://unused", 1)
	c.BaseBackoff = 10 * time.Millisecond
	c.MaxBackoff = 200 * time.Millisecond
	doc := &server.ErrorDoc{}
	for attempt := 0; attempt < 12; attempt++ {
		want := c.BaseBackoff << uint(attempt)
		if want <= 0 || want > c.MaxBackoff {
			want = c.MaxBackoff
		}
		d := c.backoff(attempt, doc)
		if d < want/2 || d > want {
			t.Fatalf("attempt %d: backoff %v outside jitter window [%v, %v]", attempt, d, want/2, want)
		}
	}
}

func TestBackoffHonorsRetryAfterHint(t *testing.T) {
	c := New("http://unused", 1)
	c.BaseBackoff = time.Millisecond
	c.MaxBackoff = 2 * time.Millisecond
	var doc server.ErrorDoc
	doc.Error.RetryAfterMS = 500
	if d := c.backoff(0, &doc); d < 500*time.Millisecond {
		t.Fatalf("backoff %v ignores the server's 500ms retry hint", d)
	}
}

func TestOptimizeRetriesBackpressureThenSucceeds(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"kind":"overloaded","message":"queue full","retry_after_ms":1}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"model":"qon","n":3,"rung":"full","degraded":false,` +
			`"report":{"model":"qon","n":3,"runs":[]}}`))
	}))
	defer ts.Close()

	c := New(ts.URL, 7)
	c.BaseBackoff = time.Millisecond
	c.MaxBackoff = 5 * time.Millisecond
	out, err := c.Optimize(context.Background(), &server.Request{
		Job: &server.Job{Workload: &server.WorkloadSpec{Shape: "chain", N: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() || out.Attempts != 3 || out.Backoffs != 2 {
		t.Fatalf("outcome %+v, want 200 after 3 attempts / 2 backoffs", out)
	}
	if out.Result == nil || out.Result.Model != "qon" {
		t.Fatalf("result not decoded: %+v", out.Result)
	}
}

func TestOptimizeDoesNotRetryTerminalErrors(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"kind":"bad_request","message":"nope"}}`))
	}))
	defer ts.Close()

	c := New(ts.URL, 7)
	out, err := c.Optimize(context.Background(), &server.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != http.StatusBadRequest || out.Attempts != 1 || out.Backoffs != 0 {
		t.Fatalf("outcome %+v, want a single non-retried 400", out)
	}
	if out.ErrDoc == nil || out.ErrDoc.Error.Kind != "bad_request" {
		t.Fatalf("error document not decoded: %+v", out.ErrDoc)
	}
	if hits.Load() != 1 {
		t.Fatalf("server hit %d times, want 1", hits.Load())
	}
}

func TestOptimizeRejectsUnstructuredErrorBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "oops", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := New(ts.URL, 7)
	if _, err := c.Optimize(context.Background(), &server.Request{}); err == nil {
		t.Fatal("unstructured 503 body must surface as an error")
	}
}

func TestOptimizeExhaustsRetriesAndReturnsLastOutcome(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"kind":"draining","message":"bye"}}`))
	}))
	defer ts.Close()

	c := New(ts.URL, 7)
	c.Retries = 2
	c.BaseBackoff = time.Millisecond
	c.MaxBackoff = 2 * time.Millisecond
	out, err := c.Optimize(context.Background(), &server.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != http.StatusServiceUnavailable || out.Attempts != 3 || out.Backoffs != 2 {
		t.Fatalf("outcome %+v, want 503 after 3 attempts / 2 backoffs", out)
	}
	if out.ErrDoc == nil || out.ErrDoc.Error.Kind != "draining" {
		t.Fatalf("last error document not kept: %+v", out.ErrDoc)
	}
}

func TestOptimizeBatchRetriesBackpressureThenSucceeds(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/optimize/batch" {
			t.Errorf("batch client hit %q", r.URL.Path)
		}
		w.Header().Set("Content-Type", "application/json")
		if hits.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"kind":"shed","message":"later","retry_after_ms":1}}`))
			return
		}
		w.Write([]byte(`{"jobs":2,"shapes":1,"results":[` +
			`{"index":0,"result":{"model":"qon","n":3,"rung":"full"}},` +
			`{"index":1,"error":{"kind":"bad_request","message":"nope"}}]}`))
	}))
	defer ts.Close()

	c := New(ts.URL, 11)
	c.BaseBackoff = time.Millisecond
	c.MaxBackoff = 5 * time.Millisecond
	out, err := c.OptimizeBatch(context.Background(), &server.BatchRequest{
		Jobs: []*server.Job{{Workload: &server.WorkloadSpec{Shape: "chain", N: 3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() || out.Attempts != 2 || out.Backoffs != 1 {
		t.Fatalf("outcome %+v, want 200 after 2 attempts / 1 backoff", out)
	}
	br := out.Response
	if br == nil || br.Jobs != 2 || br.Shapes != 1 || len(br.Results) != 2 {
		t.Fatalf("batch response not decoded: %+v", br)
	}
	if br.Results[0].Result == nil || br.Results[1].Error == nil {
		t.Fatalf("per-job outcomes lost in decoding: %+v", br.Results)
	}
}

func TestPlantedBatchIsSeededAndPlantsDuplicates(t *testing.T) {
	jobs, distinct, err := PlantedBatch(3, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 24 {
		t.Fatalf("got %d jobs, want 24", len(jobs))
	}
	if distinct <= 0 || distinct >= len(jobs) {
		t.Fatalf("distinct = %d of %d jobs: want some planted duplicates", distinct, len(jobs))
	}
	for i, j := range jobs {
		if j.Instance == nil {
			t.Fatalf("job %d has no inline instance", i)
		}
	}
	again, distinct2, err := PlantedBatch(3, 24)
	if err != nil {
		t.Fatal(err)
	}
	if distinct2 != distinct {
		t.Fatalf("same seed planted %d then %d distinct instances", distinct, distinct2)
	}
	a, _ := json.Marshal(jobs)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatal("same seed produced different batches")
	}
	other, _, err := PlantedBatch(4, 24)
	if err != nil {
		t.Fatal(err)
	}
	o, _ := json.Marshal(other)
	if string(a) == string(o) {
		t.Fatal("different seeds produced identical batches")
	}
}
