package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"approxqo/internal/chaos"
	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/opt"
	"approxqo/internal/qon"
)

func healthInstance(n int) *qon.Instance {
	return qon.NewUniform(graph.Complete(n), num.FromInt64(8), num.Pow2(-1), num.FromInt64(2))
}

func TestHealthZeroValue(t *testing.T) {
	e := New()
	h := e.Health()
	if h.Runs != 0 || h.Failed != 0 || h.LastOK || h.Quarantined != 0 || len(h.ErrKinds) != 0 {
		t.Fatalf("fresh engine health not zero: %+v", h)
	}
}

func TestHealthAfterSuccessfulRun(t *testing.T) {
	e := New()
	if _, err := e.Run(context.Background(), healthInstance(5), opt.NewDP()); err != nil {
		t.Fatal(err)
	}
	h := e.Health()
	if h.Runs != 1 || h.Failed != 0 || !h.LastOK {
		t.Fatalf("health after clean run: %+v", h)
	}
	if h.Quarantined != 0 || len(h.ErrKinds) != 0 {
		t.Fatalf("clean run reported faults: %+v", h)
	}
}

func TestHealthAfterFailedRun(t *testing.T) {
	e := New()
	bad := chaos.Wrap(opt.NewDP(), chaos.FaultPanic)
	if _, err := e.Run(context.Background(), healthInstance(5), bad); err == nil {
		t.Fatal("expected all-failed error")
	}
	h := e.Health()
	if h.Runs != 1 || h.Failed != 1 || h.LastOK {
		t.Fatalf("health after failed run: %+v", h)
	}
	if h.Quarantined != 1 {
		t.Fatalf("want 1 quarantined, got %+v", h)
	}
	if len(h.ErrKinds) != 1 || h.ErrKinds[0] != "panic" {
		t.Fatalf("want err kinds [panic], got %v", h.ErrKinds)
	}

	// A subsequent clean run flips LastOK back and resets the last-run
	// fields while the cumulative counters keep history.
	if _, err := e.Run(context.Background(), healthInstance(5), opt.NewDP()); err != nil {
		t.Fatal(err)
	}
	h = e.Health()
	if h.Runs != 2 || h.Failed != 1 || !h.LastOK || h.Quarantined != 0 || len(h.ErrKinds) != 0 {
		t.Fatalf("health after recovery: %+v", h)
	}
}

func TestHealthMixedKinds(t *testing.T) {
	e := New()
	in := healthInstance(5)
	_, err := e.Run(context.Background(), in,
		chaos.Wrap(opt.NewDP(), chaos.FaultWrongCost),
		chaos.Wrap(opt.NewGreedy(opt.GreedyMinCost), chaos.FaultError),
		opt.NewGreedy(opt.GreedyMinSize),
	)
	if err != nil {
		t.Fatal(err)
	}
	h := e.Health()
	if !h.LastOK {
		t.Fatalf("run with one honest optimizer should be OK: %+v", h)
	}
	want := map[string]bool{"uncertified": true, "error": true}
	if len(h.ErrKinds) != len(want) {
		t.Fatalf("want kinds %v, got %v", want, h.ErrKinds)
	}
	for _, k := range h.ErrKinds {
		if !want[k] {
			t.Fatalf("unexpected kind %q in %v", k, h.ErrKinds)
		}
	}
}

// TestHealthConcurrent reads the probe while runs are in flight; the
// race detector is the assertion.
func TestHealthConcurrent(t *testing.T) {
	e := New()
	in := healthInstance(4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.Health()
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = e.Run(context.Background(), in, opt.NewDP(), opt.NewGreedy(opt.GreedyMinSize))
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if h := e.Health(); h.Runs != 8 {
		t.Fatalf("want 8 runs accounted, got %+v", h)
	}
}
