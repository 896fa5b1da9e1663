package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"approxqo/internal/chaos"
	"approxqo/internal/trace"
)

func TestLadderRungs(t *testing.T) {
	cases := []struct {
		load, degradeAt, shedAt int
		want                    Rung
	}{
		{0, 2, 0, RungFull},
		{1, 2, 0, RungFull},
		{2, 2, 0, RungHeuristic},
		{99, 2, 0, RungHeuristic}, // shed disabled: queue bound backpressures
		{2, 2, 4, RungHeuristic},
		{4, 2, 4, RungShed},
		{9, 2, 4, RungShed},
	}
	for _, c := range cases {
		if got := ladder(c.load, c.degradeAt, c.shedAt); got != c.want {
			t.Errorf("ladder(%d,%d,%d) = %v, want %v", c.load, c.degradeAt, c.shedAt, got, c.want)
		}
	}
	if RungFull.Degraded() || !RungHeuristic.Degraded() || RungShed.Degraded() {
		t.Error("Degraded() must mark exactly the heuristic rung")
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	b := NewBreaker(2, time.Minute)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }

	if !b.Allow("kbz") {
		t.Fatal("unknown optimizer must be allowed")
	}
	b.Record("kbz", false)
	if !b.Allow("kbz") {
		t.Fatal("one failure below threshold must not open the circuit")
	}
	b.Record("kbz", false)
	if b.Allow("kbz") {
		t.Fatal("threshold failures must open the circuit")
	}
	if open := b.Open(); len(open) != 1 || open[0] != "kbz" {
		t.Fatalf("Open() = %v, want [kbz]", open)
	}

	// Cooldown lapses → half-open: allowed again, next outcome decides.
	now = now.Add(2 * time.Minute)
	if !b.Allow("kbz") {
		t.Fatal("lapsed cooldown must half-open the circuit")
	}
	b.Record("kbz", false) // still failing: re-open... but only after threshold from the last open
	b.Record("kbz", false)
	if b.Allow("kbz") {
		t.Fatal("continued failures must re-open the circuit")
	}
	now = now.Add(2 * time.Minute)
	b.Record("kbz", true)
	if !b.Allow("kbz") || len(b.Open()) != 0 {
		t.Fatal("a success must close the circuit")
	}
}

func TestDecodeRequestValidation(t *testing.T) {
	reject := []struct{ name, body string }{
		{"empty", `{}`},
		{"not json", `}{`},
		{"two sources", `{"job":{"workload":{"shape":"chain","n":5},"instance":{"query_graph":{"n":1,"edges":[]},"sizes":["2"],"selectivities":[["1"]],"access_costs":[["2"]]}}}`},
		{"bad model", `{"job":{"model":"bushy","workload":{"shape":"chain","n":5}}}`},
		{"model mismatch", `{"job":{"model":"qoh","workload":{"shape":"chain","n":5}}}`},
		{"bad shape", `{"job":{"workload":{"shape":"pentagram","n":5}}}`},
		{"n too small", `{"job":{"workload":{"shape":"chain","n":1}}}`},
		{"n too large", fmt.Sprintf(`{"job":{"workload":{"shape":"chain","n":%d}}}`, MaxRequestN+1)},
		{"bad edge prob", `{"job":{"workload":{"shape":"random","n":5,"edge_prob":1.5}}}`},
		{"negative timeout", `{"job":{"timeout_ms":-1,"workload":{"shape":"chain","n":5}}}`},
		{"invalid instance", `{"job":{"instance":{"query_graph":{"n":1,"edges":[]},"sizes":["0"],"selectivities":[["1"]],"access_costs":[["1"]]}}}`},
	}
	for _, c := range reject {
		if _, err := DecodeRequest([]byte(c.body)); err == nil {
			t.Errorf("%s: decoder accepted %s", c.name, c.body)
		}
	}
	req, err := DecodeRequest([]byte(`{"job":{"workload":{"shape":"star","n":6,"seed":3},"timeout_ms":500}}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.model() != "qon" {
		t.Fatalf("model = %q, want qon", req.model())
	}
	if got := req.ResolveBudget(2*time.Second, 30*time.Second); got != 500*time.Millisecond {
		t.Fatalf("budget = %v, want 500ms", got)
	}
	if got := req.ResolveBudget(2*time.Second, 100*time.Millisecond); got != 100*time.Millisecond {
		t.Fatalf("budget must clamp to max, got %v", got)
	}
	in, err := req.qonInstance()
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != 6 {
		t.Fatalf("generated instance has n=%d, want 6", in.N())
	}
}

func TestAdmissionStateMachine(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 2, QueueDepth: 2, DegradeAt: 3, ShedAt: 0})
	if err != nil {
		t.Fatal(err)
	}
	wantRungs := []Rung{RungFull, RungFull, RungFull, RungHeuristic} // loads 0..3; capacity 4
	for i, want := range wantRungs {
		rung, rej := s.admit()
		if rej != nil {
			t.Fatalf("admit %d rejected: %+v", i, rej)
		}
		if rung != want {
			t.Fatalf("admit %d: rung %v, want %v", i, rung, want)
		}
	}
	if _, rej := s.admit(); rej == nil || rej.status != http.StatusTooManyRequests || rej.kind != "overloaded" {
		t.Fatalf("admit past capacity: want 429 overloaded, got %+v", rej)
	}
	s.release()
	if _, rej := s.admit(); rej != nil {
		t.Fatalf("admit after release rejected: %+v", rej)
	}
	for i := 0; i < 4; i++ {
		s.release()
	}

	shedding, err := New(Config{MaxConcurrent: 2, QueueDepth: 4, DegradeAt: 1, ShedAt: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rung, rej := shedding.admit(); rej != nil || rung != RungFull {
		t.Fatalf("load 0: want full, got %v/%+v", rung, rej)
	}
	if rung, rej := shedding.admit(); rej != nil || rung != RungHeuristic {
		t.Fatalf("load 1: want heuristic, got %v/%+v", rung, rej)
	}
	if _, rej := shedding.admit(); rej == nil || rej.status != http.StatusServiceUnavailable || rej.kind != "shed" {
		t.Fatalf("load 2: want 503 shed, got %+v", rej)
	}
}

// TestPrecheckMatchesAdmit pins the batch endpoint's pre-decode gate to
// the admission rule: in each refusing state precheck returns exactly
// the rejection admit does, and neither takes an in-flight slot.
func TestPrecheckMatchesAdmit(t *testing.T) {
	for _, tc := range []struct {
		name     string
		draining bool
		inflight int
		kind     string
	}{
		{"draining", true, 0, "draining"},
		{"full", false, 10, "overloaded"},
		{"shed", false, 4, "shed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{MaxConcurrent: 2, QueueDepth: 8, DegradeAt: 2, ShedAt: 4})
			if err != nil {
				t.Fatal(err)
			}
			s.draining, s.inflight = tc.draining, tc.inflight
			pre := s.precheck()
			_, adm := s.admit()
			if pre == nil || adm == nil {
				t.Fatalf("precheck %+v, admit %+v: want both to refuse", pre, adm)
			}
			if *pre != *adm {
				t.Fatalf("precheck %+v differs from admit %+v", *pre, *adm)
			}
			if pre.kind != tc.kind {
				t.Fatalf("kind %q, want %q", pre.kind, tc.kind)
			}
			if s.inflight != tc.inflight {
				t.Fatalf("in-flight count moved from %d to %d", tc.inflight, s.inflight)
			}
		})
	}
}

func TestShedAtMustExceedDegradeAt(t *testing.T) {
	if _, err := New(Config{DegradeAt: 4, ShedAt: 4}); err == nil {
		t.Fatal("New accepted ShedAt == DegradeAt")
	}
	if _, err := New(Config{ChaosSpec: "explode:*"}); err == nil {
		t.Fatal("New accepted an invalid chaos spec")
	}
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/optimize", "application/json", strings.NewReader(body))
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

func decodeResult(t *testing.T, data []byte) *Result {
	t.Helper()
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("undecodable result %s: %v", data, err)
	}
	return &res
}

func decodeErrorDoc(t *testing.T, data []byte) *ErrorDoc {
	t.Helper()
	var doc ErrorDoc
	if err := json.Unmarshal(data, &doc); err != nil || doc.Error.Kind == "" {
		t.Fatalf("unstructured error body %s (err %v)", data, err)
	}
	return &doc
}

func TestOptimizeEndToEnd(t *testing.T) {
	reg := trace.NewRegistry()
	s, err := New(Config{MaxConcurrent: 2, QueueDepth: 4, Metrics: reg, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Full-rung QO_N request over a generated workload.
	resp, data := postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":7,"seed":2}}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	res := decodeResult(t, data)
	if res.Rung != "full" || res.Degraded {
		t.Fatalf("low-load request served at %q degraded=%v", res.Rung, res.Degraded)
	}
	if res.Report == nil || res.Report.Best == nil || !res.Report.Best.Certified || !res.Report.Best.Exact {
		t.Fatalf("full rung must yield a certified exact winner: %s", data)
	}

	// QO_H request with an inline instance.
	qohBody := `{"job":{"model":"qoh","qoh_instance":{"query_graph":{"n":3,"edges":[[0,1],[1,2]]},` +
		`"sizes":["8","8","8"],"selectivities":[["1","0.5","1"],["0.5","1","0.5"],["1","0.5","1"]],"memory":"6"}}}`
	resp, data = postJSON(t, ts.URL, qohBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("qoh status %d: %s", resp.StatusCode, data)
	}
	if res := decodeResult(t, data); res.Model != "qoh" || res.Report.Best == nil {
		t.Fatalf("qoh response: %s", data)
	}

	// Structured errors: bad method, bad body, bad request.
	getResp, err := http.Get(ts.URL + "/optimize")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", getResp.StatusCode)
	}
	decodeErrorDoc(t, buf.Bytes())

	resp, data = postJSON(t, ts.URL, `not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status %d", resp.StatusCode)
	}
	if doc := decodeErrorDoc(t, data); doc.Error.Kind != "bad_request" {
		t.Fatalf("kind %q, want bad_request", doc.Error.Kind)
	}

	snap := reg.Snapshot()
	if snap.Counters[MetricRequests] != 4 || snap.Counters[MetricAccepted] != 3 ||
		snap.Counters[MetricBadRequest] != 2 {
		t.Fatalf("metric invariant broken: %+v", snap.Counters)
	}
	if g := snap.Gauges[MetricInFlight]; g != 0 {
		t.Fatalf("inflight gauge %d after all responses", g)
	}
}

func TestHealthzAndReadyz(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthDoc
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Draining {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready ReadyDoc
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !ready.Ready {
		t.Fatalf("fresh server not ready: %d %+v", resp.StatusCode, ready)
	}
}

// TestReadyzReflectsEngineFailure: a server whose every ensemble member
// fails (error chaos on all) stops reporting ready after its first
// failed run — the engine health probe feeds /readyz.
func TestReadyzReflectsEngineFailure(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 1, ChaosSpec: "error:*", EngineGrace: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":5},"timeout_ms":3000}}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("all-failed request: status %d body %s", resp.StatusCode, data)
	}
	if doc := decodeErrorDoc(t, data); doc.Error.Kind != "all_failed" {
		t.Fatalf("kind %q, want all_failed", doc.Error.Kind)
	}
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready ReadyDoc
	json.NewDecoder(rresp.Body).Decode(&ready)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("readyz after all-failed run: %d %+v", rresp.StatusCode, ready)
	}
	if ready.Engine.Runs != 1 || ready.Engine.LastOK {
		t.Fatalf("engine health not surfaced: %+v", ready.Engine)
	}
}

func TestPanicIsolation(t *testing.T) {
	reg := trace.NewRegistry()
	s, err := New(Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("handler bug") })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if doc := decodeErrorDoc(t, buf.Bytes()); doc.Error.Kind != "panic" {
		t.Fatalf("kind %q, want panic", doc.Error.Kind)
	}
	if reg.Snapshot().Counters[MetricPanics] != 1 {
		t.Fatal("panic not counted")
	}
	// The server survives: a normal request still works.
	if resp, data := postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":5}}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request failed: %d %s", resp.StatusCode, data)
	}
}

// TestDegradedUnderLoad exercises the ladder through real HTTP: with
// one worker, a stalled request in flight degrades the next admission,
// and the degraded response carries no exact-optimizer runs.
func TestDegradedUnderLoad(t *testing.T) {
	s, err := New(Config{
		MaxConcurrent: 1, QueueDepth: 4, DegradeAt: 1,
		ChaosSpec:    "stall:kbz",
		ChaosOptions: []chaos.Option{chaos.WithStall(300 * time.Millisecond)},
		EngineGrace:  30 * time.Millisecond,
		RetryAfter:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan *Result, 1)
	go func() {
		resp, data := postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":6},"timeout_ms":5000}}`)
		if resp.StatusCode == http.StatusOK {
			first <- decodeResult(t, data)
		} else {
			first <- nil
		}
	}()
	waitFor(t, func() bool { return s.InFlight() >= 1 })

	resp, data := postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":6},"timeout_ms":5000}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d %s", resp.StatusCode, data)
	}
	second := decodeResult(t, data)
	if !second.Degraded || second.Rung != "heuristic" {
		t.Fatalf("second request not degraded: %+v", second)
	}
	if second.Report.Best == nil || !second.Report.Best.Certified {
		t.Fatal("degraded result must still be certified")
	}
	for _, run := range second.Report.Runs {
		if strings.HasPrefix(run.Name, "subset-dp") {
			t.Fatalf("degraded rung ran exact optimizer %q", run.Name)
		}
	}
	if second.Report.Best.Exact {
		t.Fatal("heuristics-only rung cannot certify exactness")
	}
	if res := <-first; res == nil {
		t.Fatal("first request failed")
	} else if res.Degraded {
		t.Fatal("first request (admitted at load 0) must not be degraded")
	}
}

// TestBackpressure429 fills the admission queue and checks the
// structured 429 + Retry-After.
func TestBackpressure429(t *testing.T) {
	s, err := New(Config{
		MaxConcurrent: 1, QueueDepth: 1, DegradeAt: 1,
		ChaosSpec:    "stall:*",
		ChaosOptions: []chaos.Option{chaos.WithStall(400 * time.Millisecond)},
		EngineGrace:  30 * time.Millisecond,
		RetryAfter:   700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, _ := postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":5},"timeout_ms":5000}}`)
			results <- resp.StatusCode
		}()
	}
	waitFor(t, func() bool { return s.InFlight() == 2 })

	resp, data := postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":5}}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: status %d body %s", resp.StatusCode, data)
	}
	doc := decodeErrorDoc(t, data)
	if doc.Error.Kind != "overloaded" || doc.Error.RetryAfterMS != 700 {
		t.Fatalf("429 doc: %+v", doc.Error)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" { // 700ms rounds up to 1s
		t.Fatalf("Retry-After header %q, want 1", ra)
	}
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("queued request finished with %d", code)
		}
	}
}

// TestQueueDeadline: a request whose budget expires while queued gets a
// structured 503 queue_deadline document, not a hang.
func TestQueueDeadline(t *testing.T) {
	s, err := New(Config{
		MaxConcurrent: 1, QueueDepth: 2, DegradeAt: 1,
		ChaosSpec:    "stall:*",
		ChaosOptions: []chaos.Option{chaos.WithStall(500 * time.Millisecond)},
		EngineGrace:  30 * time.Millisecond,
		RetryAfter:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":5},"timeout_ms":5000}}`)
		close(done)
	}()
	// Wait for the worker slot, not admission: a first request still
	// decoding its body would let the 60 ms request take the slot.
	waitFor(t, func() bool { return len(s.slots) == 1 })

	resp, data := postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":5},"timeout_ms":60}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued-past-budget request: %d %s", resp.StatusCode, data)
	}
	if doc := decodeErrorDoc(t, data); doc.Error.Kind != "queue_deadline" {
		t.Fatalf("kind %q, want queue_deadline", doc.Error.Kind)
	}
	<-done
}

// TestGracefulShutdownDrains: Shutdown answers every in-flight request,
// rejects new ones with a structured draining document, and returns nil
// exactly when nothing was dropped.
func TestGracefulShutdownDrains(t *testing.T) {
	s, err := New(Config{
		MaxConcurrent: 2, QueueDepth: 4,
		ChaosSpec:    "stall:kbz",
		ChaosOptions: []chaos.Option{chaos.WithStall(250 * time.Millisecond)},
		EngineGrace:  30 * time.Millisecond,
		RetryAfter:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	statuses := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go func() {
			resp, _ := postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":6},"timeout_ms":5000}}`)
			statuses <- resp.StatusCode
		}()
	}
	waitFor(t, func() bool { return s.InFlight() == 3 })

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})

	// New work is refused while draining…
	resp, data := postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":5}}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: %d", resp.StatusCode)
	}
	if doc := decodeErrorDoc(t, data); doc.Error.Kind != "draining" {
		t.Fatalf("kind %q, want draining", doc.Error.Kind)
	}
	// …but the in-flight requests all complete.
	for i := 0; i < 3; i++ {
		if code := <-statuses; code != http.StatusOK {
			t.Fatalf("in-flight request dropped with status %d", code)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	if n := s.InFlight(); n != 0 {
		t.Fatalf("%d requests still in flight after drain", n)
	}
}

// TestShutdownDeadlineExceeded: an over-slow request makes Shutdown
// report the incomplete drain instead of hanging.
func TestShutdownDeadlineExceeded(t *testing.T) {
	s, err := New(Config{
		MaxConcurrent: 1,
		ChaosSpec:     "stall:*",
		ChaosOptions:  []chaos.Option{chaos.WithStall(2 * time.Second)},
		EngineGrace:   30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	done := make(chan struct{})
	go func() {
		postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":5},"timeout_ms":10000}}`)
		close(done)
	}()
	waitFor(t, func() bool { return s.InFlight() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown must report an incomplete drain")
	}
	<-done // let the request finish so the test server can close
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
