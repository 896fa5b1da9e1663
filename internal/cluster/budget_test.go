package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"approxqo/internal/engine"
	"approxqo/internal/num"
	"approxqo/internal/server"
	"approxqo/internal/trace"
)

// refund returns exactly the withdrawn token and never mints past the
// burst cap.
func TestRetryBudgetRefundCappedAtBurst(t *testing.T) {
	b := newRetryBudget(0, 0) // defaults: ratio 0.2, burst 10
	if got := b.balance(); got != DefaultRetryBurst {
		t.Fatalf("initial balance %v, want %d", got, DefaultRetryBurst)
	}
	for i := 0; i < 3; i++ {
		if !b.withdraw() {
			t.Fatalf("withdraw %d refused with balance %v", i, b.balance())
		}
	}
	if got := b.balance(); got != DefaultRetryBurst-3 {
		t.Fatalf("balance after 3 withdrawals = %v, want %d", got, DefaultRetryBurst-3)
	}
	b.refund()
	if got := b.balance(); got != DefaultRetryBurst-2 {
		t.Fatalf("balance after refund = %v, want %d", got, DefaultRetryBurst-2)
	}
	// Refunds past the cap must not mint tokens.
	for i := 0; i < 10; i++ {
		b.refund()
	}
	if got := b.balance(); got != DefaultRetryBurst {
		t.Fatalf("balance after excess refunds = %v, want cap %d", got, DefaultRetryBurst)
	}
}

// The hedged-loser refund end to end: the primary answers while the
// hedge is still in flight, so the hedge's token bought no upstream
// work and must flow back — without the refund, every primary win
// under tail-latency hedging would permanently drain the budget
// (the double-withdraw this guards against).
func TestHedgeLoserRefundsBudgetToken(t *testing.T) {
	canned := &server.Result{
		Model: "qon", N: 2, Rung: "full",
		Report: &engine.Report{
			Model: "qon", N: 2,
			Best: &engine.BestRecord{
				Winner: "dp", Sequence: []int{1, 0},
				Cost: num.FromInt64(42), Certified: true,
			},
		},
	}
	var mu sync.Mutex
	roles := make(map[string]string) // host → primary|stall
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		role := roles[r.Host]
		mu.Unlock()
		io.Copy(io.Discard, r.Body)
		if role == "primary" {
			time.Sleep(40 * time.Millisecond) // slow enough for the hedge to fire
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(canned)
			return
		}
		// The hedge target is finitely slow: far too slow to win the race
		// (the primary answers at ~40ms), but it unblocks on its own so
		// server teardown never waits on a cancelled connection.
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	a := httptest.NewServer(handler)
	defer a.Close()
	b := httptest.NewServer(handler)
	defer b.Close()

	req := &server.Request{Job: &server.Job{Workload: &server.WorkloadSpec{Shape: "chain", N: 5, Seed: 3}, TimeoutMS: 20_000}}
	key := routeKey(req, nil)
	order := NewRing([]string{a.URL, b.URL}, 0).Lookup(key, 2) // dispatch order: order[0] primary, order[1] hedge
	mu.Lock()
	roles[strings.TrimPrefix(order[0], "http://")] = "primary"
	mu.Unlock()

	reg := trace.NewRegistry()
	co, err := New(Config{
		Workers:       []string{a.URL, b.URL},
		ProbeInterval: -1,
		HedgeAfter:    5 * time.Millisecond,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(cts.URL+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if v := reg.Counter(MetricHedgeIssued).Value(); v != 1 {
		t.Fatalf("hedge.issued = %d, want 1", v)
	}
	if v := reg.Counter(MetricHedgeWins).Value(); v != 0 {
		t.Fatalf("hedge.wins = %d, want 0 (the primary won)", v)
	}
	if v := reg.Counter(MetricRetryRefunded).Value(); v != 1 {
		t.Fatalf("retry.refunded = %d, want 1 (the losing hedge's token)", v)
	}
	if got := co.budget.balance(); got != DefaultRetryBurst {
		t.Fatalf("budget balance %v after the refund, want %d", got, DefaultRetryBurst)
	}
}
