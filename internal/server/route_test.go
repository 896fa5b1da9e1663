package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"approxqo/internal/chaos"
	"approxqo/internal/engine"
	"approxqo/internal/trace"
)

// A routed request must come back with the router's decision attached
// and the pruned optimizers accounted for in Report.Skipped with
// structured reasons — the "which subset ran and why" contract.
func TestRoutedRequestRecordsDecisionAndSkips(t *testing.T) {
	reg := trace.NewRegistry()
	s, err := New(Config{Route: true, Metrics: reg, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"job":{"workload":{"shape":"chain-selective","n":12,"seed":4},"timeout_ms":20000}}`
	resp, data := postJSON(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed request: %d %s", resp.StatusCode, data)
	}
	res := decodeResult(t, data)
	r := res.Routing
	if r == nil {
		t.Fatalf("routed result carries no routing decision: %s", data)
	}
	if string(r.Class) != "chain-selective" || !r.Recognized {
		t.Errorf("decision %+v, want recognized chain-selective", r)
	}
	if res.Report.Best == nil || !res.Report.Best.Certified {
		t.Fatal("routed result not certified")
	}
	if len(res.Report.Skipped) == 0 {
		t.Fatal("recognized family ran the full ensemble; expected skipped optimizers")
	}
	skippedNames := map[string]string{}
	for _, sk := range res.Report.Skipped {
		if sk.Reason != engine.SkipRouting && sk.Reason != engine.SkipOutOfRange {
			t.Errorf("unexpected skip reason %q for %s", sk.Reason, sk.Name)
		}
		skippedNames[sk.Name] = sk.Reason
	}
	if skippedNames["subset-dp"] != engine.SkipRouting {
		t.Errorf("subset-dp skip = %q, want %q (skipped: %v)", skippedNames["subset-dp"], engine.SkipRouting, skippedNames)
	}
	for _, run := range res.Report.Runs {
		if _, dup := skippedNames[run.Name]; dup {
			t.Errorf("%s both ran and was recorded skipped", run.Name)
		}
	}
	if v := reg.Counter(MetricRouted).Value(); v != 1 {
		t.Errorf("%s = %d, want 1", MetricRouted, v)
	}
	if v := reg.Counter(MetricRouteSkips).Value(); v == 0 {
		t.Errorf("%s = 0, want the pruned optimizers counted", MetricRouteSkips)
	}

	// A reduced (greedy-only, non-exact) routed result must never enter
	// the certified-result cache: the identical request runs fresh.
	resp, data = postJSON(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second routed request: %d %s", resp.StatusCode, data)
	}
	if decodeResult(t, data).Cached {
		t.Fatal("reduced routed result was served from the cache")
	}

	// The job-level override wins over the server default: route:false
	// forces the unrouted full rung, no decision attached. At n=12 its
	// serial DP is in reach, so the only skips are the local tier's.
	full := `{"job":{"workload":{"shape":"chain-selective","n":12,"seed":4},"timeout_ms":20000,"route":false}}`
	resp, data = postJSON(t, ts.URL, full)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("route:false request: %d %s", resp.StatusCode, data)
	}
	res = decodeResult(t, data)
	if res.Routing != nil {
		t.Errorf("route:false result still carries a decision: %+v", res.Routing)
	}
	if len(res.Report.Skipped) != 2 {
		t.Errorf("full rung skipped %+v, want the two local-tier members", res.Report.Skipped)
	}
	for _, sk := range res.Report.Skipped {
		if sk.Reason != engine.SkipExactInReach {
			t.Errorf("full rung skipped %s for %q, want %q", sk.Name, sk.Reason, engine.SkipExactInReach)
		}
	}
	if best := res.Report.Best; best == nil || !best.Exact || best.Winner != "subset-dp" {
		t.Errorf("full rung winner %+v, want the exact subset-dp", best)
	}
}

// An adversarial (statistics-free) instance routed on a degraded rung
// must still be served by the certified exact tier: degradation sheds
// the heuristics the classifier ranks least valuable, never the exact
// tier the hardness family requires. A stalled request on a one-worker
// server degrades the next admission, as in TestDegradedUnderLoad.
func TestRoutedAdversarialSurvivesDegradedRung(t *testing.T) {
	s, err := New(Config{
		Route: true, Seed: 3,
		MaxConcurrent: 1, QueueDepth: 4, DegradeAt: 1,
		ChaosSpec:    "stall:kbz",
		ChaosOptions: []chaos.Option{chaos.WithStall(300 * time.Millisecond)},
		EngineGrace:  30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL, `{"job":{"workload":{"shape":"chain","n":6},"timeout_ms":5000}}`)
		first <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.InFlight() >= 1 })

	body := `{"job":{"workload":{"shape":"cliquered-yes","n":10,"seed":0},"timeout_ms":20000}}`
	resp, data := postJSON(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded adversarial request: %d %s", resp.StatusCode, data)
	}
	res := decodeResult(t, data)
	if !res.Degraded {
		t.Skip("second request was not admitted on the degraded rung")
	}
	if res.Routing == nil || string(res.Routing.Class) != "adversarial" {
		t.Fatalf("routing decision %+v, want adversarial", res.Routing)
	}
	if len(res.Routing.Degraded) == 0 {
		t.Error("degraded routed decision records no shed tier")
	}
	if res.Report.Best == nil || !res.Report.Best.Exact || !res.Report.Best.Certified {
		t.Fatalf("degraded adversarial result not certified exact: %s", data)
	}
	if <-first != http.StatusOK {
		t.Fatal("stalled first request failed")
	}
}
