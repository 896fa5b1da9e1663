package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestHealthStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	h := newHealthBoard(3, 2*time.Second, nil)
	h.now = func() time.Time { return now }
	const w = "http://w1"

	if h.stateOf(w) != StateHealthy || !h.routable(w) {
		t.Fatal("unseen worker must start healthy and routable")
	}
	h.observe(w, false)
	if h.stateOf(w) != StateSuspect {
		t.Fatalf("after 1 failure: %v, want suspect", h.stateOf(w))
	}
	if !h.routable(w) {
		t.Fatal("suspect workers must stay routable")
	}
	h.observe(w, true)
	if h.stateOf(w) != StateHealthy {
		t.Fatalf("success must close the circuit: %v", h.stateOf(w))
	}

	downs := 0
	h.onDown = func(string) { downs++ }
	for i := 0; i < 3; i++ {
		h.observe(w, false)
	}
	if h.stateOf(w) != StateDown {
		t.Fatalf("after 3 consecutive failures: %v, want down", h.stateOf(w))
	}
	if downs != 1 {
		t.Fatalf("down transitions fired %d times, want 1", downs)
	}
	if h.routable(w) {
		t.Fatal("down worker routable inside its cooldown")
	}
	h.observe(w, false) // more failures while down must not re-fire the hook
	if downs != 1 {
		t.Fatalf("repeat failure while down re-fired the hook (%d)", downs)
	}

	now = now.Add(3 * time.Second)
	if !h.routable(w) {
		t.Fatal("cooldown lapsed but the circuit did not half-open")
	}
	if h.stateOf(w) != StateDown {
		t.Fatal("half-open is a trial, not a state change")
	}
	h.observe(w, true)
	if h.stateOf(w) != StateHealthy || !h.routable(w) {
		t.Fatal("successful half-open trial must close the circuit")
	}
}

func TestHealthHalfOpenFailureReopens(t *testing.T) {
	now := time.Unix(1000, 0)
	h := newHealthBoard(2, time.Second, nil)
	h.now = func() time.Time { return now }
	const w = "http://w1"
	h.observe(w, false)
	h.observe(w, false)
	now = now.Add(1500 * time.Millisecond)
	if !h.routable(w) {
		t.Fatal("expected half-open")
	}
	h.observe(w, false) // trial fails
	if h.routable(w) {
		t.Fatal("failed trial must re-open the circuit for another cooldown")
	}
	now = now.Add(1500 * time.Millisecond)
	if !h.routable(w) {
		t.Fatal("second cooldown must half-open again")
	}
}

func TestHealthSnapshot(t *testing.T) {
	h := newHealthBoard(3, time.Second, nil)
	h.observe("http://b", false)
	h.observe("http://a", false)
	snap := h.snapshot([]string{"http://b", "http://a", "http://c"})
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d entries, want 3", len(snap))
	}
	if snap[0].Worker != "http://a" || snap[1].Worker != "http://b" || snap[2].Worker != "http://c" {
		t.Errorf("snapshot not sorted: %+v", snap)
	}
	if snap[0].State != "suspect" || snap[0].ConsecutiveFails != 1 {
		t.Errorf("snapshot[a] = %+v, want suspect/1", snap[0])
	}
	if snap[2].State != "healthy" {
		t.Errorf("unseen worker reported %q, want healthy", snap[2].State)
	}
}

func TestRetryBudgetAccounting(t *testing.T) {
	b := newRetryBudget(0.5, 4)
	// Initial tokens = burst.
	for i := 0; i < 4; i++ {
		if !b.withdraw() {
			t.Fatalf("withdraw %d denied inside the burst", i)
		}
	}
	if b.withdraw() {
		t.Fatal("withdraw granted on an empty bucket")
	}
	b.deposit() // +0.5
	if b.withdraw() {
		t.Fatal("withdraw granted on a fractional token")
	}
	b.deposit() // 1.0
	if !b.withdraw() {
		t.Fatal("two deposits at ratio 0.5 must fund one retry")
	}
	// The bucket caps at burst: a quiet stretch cannot bank an unbounded
	// retry storm.
	for i := 0; i < 100; i++ {
		b.deposit()
	}
	granted := 0
	for b.withdraw() {
		granted++
	}
	if granted != 4 {
		t.Fatalf("full bucket funded %d retries, want burst=4", granted)
	}
}

func TestLatencyTrackerP95(t *testing.T) {
	l := newLatencyTracker()
	fallback, lo, hi := 5*time.Millisecond, time.Millisecond, time.Second
	if got := l.p95(fallback, lo, hi); got != fallback {
		t.Fatalf("empty tracker p95 = %v, want fallback %v", got, fallback)
	}
	// 100 samples: 1..100ms → p95 = 96ms (index 95 of the sorted window).
	for i := 1; i <= 100; i++ {
		l.observe(time.Duration(i) * time.Millisecond)
	}
	got := l.p95(fallback, lo, hi)
	if got < 90*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("p95 of 1..100ms = %v, want ≈95ms", got)
	}
	if got := l.p95(fallback, lo, 20*time.Millisecond); got != 20*time.Millisecond {
		t.Errorf("p95 ignored the ceiling: %v", got)
	}
	l2 := newLatencyTracker()
	for i := 0; i < 20; i++ {
		l2.observe(time.Microsecond)
	}
	if got := l2.p95(fallback, lo, hi); got != lo {
		t.Errorf("p95 ignored the floor: %v, want %v", got, lo)
	}
}

// A draining coordinator with work still in flight must answer /readyz
// 200 with draining:true and the per-worker states — not flap to 503
// while the remaining requests are being answered. Only a drained (or
// fleet-down) coordinator is unready.
func TestReadyzReportsDrainingWithoutFlapping(t *testing.T) {
	co, err := New(Config{Workers: []string{"http://w1:1", "http://w2:2"}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	readyz := func() (int, *ReadyDoc) {
		rr := httptest.NewRecorder()
		co.handleReadyz(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		var doc ReadyDoc
		if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
			t.Fatalf("undecodable readyz body %q: %v", rr.Body.String(), err)
		}
		return rr.Code, &doc
	}

	if code, doc := readyz(); code != http.StatusOK || !doc.Ready || doc.Draining {
		t.Fatalf("fresh coordinator readyz = %d %+v, want 200 ready", code, doc)
	}

	// Mid-drain with in-flight work: 200, draining flagged, workers listed.
	co.inflight.Add(1)
	co.BeginDrain()
	code, doc := readyz()
	if code != http.StatusOK {
		t.Fatalf("mid-drain readyz = %d, want 200 (no flapping while requests finish)", code)
	}
	if !doc.Draining || doc.Ready {
		t.Fatalf("mid-drain doc = %+v, want draining and not ready", doc)
	}
	if doc.InFlight != 1 || len(doc.Workers) != 2 {
		t.Fatalf("mid-drain doc carries inflight=%d workers=%d, want 1 and 2", doc.InFlight, len(doc.Workers))
	}

	// Drain complete: nothing left in flight → 503, load balancers move on.
	co.inflight.Add(-1)
	if code, doc := readyz(); code != http.StatusServiceUnavailable || doc.Ready {
		t.Fatalf("drained readyz = %d %+v, want 503 not ready", code, doc)
	}
}
