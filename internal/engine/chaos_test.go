package engine

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"approxqo/internal/certify"
	"approxqo/internal/chaos"
	"approxqo/internal/opt"
	"approxqo/internal/qon"
)

// The acceptance matrix: under every injected fault type, with one
// honest optimizer alongside, Run must return a certified valid plan
// whose recomputed cost equals the reported cost, and the faulty
// optimizer must be quarantined in the report.
func TestRunSurvivesEveryFault(t *testing.T) {
	faults := []chaos.Fault{
		chaos.FaultPanic,
		chaos.FaultStall,
		chaos.FaultWrongCost,
		chaos.FaultInvalidPlan,
		chaos.FaultError,
	}
	for _, fault := range faults {
		t.Run(string(fault), func(t *testing.T) {
			t.Parallel()
			in := randomInstance(7, 0.7, 11)
			faulty := chaos.Wrap(opt.NewGreedy(opt.GreedyMinSize), fault,
				chaos.WithSeed(1), chaos.WithStall(5*time.Second))
			honest := opt.NewGreedy(opt.GreedyMinCost)

			ctx := context.Background()
			var cancel context.CancelFunc
			if fault == chaos.FaultStall {
				// A stalling run never returns; bound the ensemble so the
				// abandonment path fires instead of waiting out the stall.
				ctx, cancel = context.WithTimeout(ctx, 100*time.Millisecond)
				defer cancel()
			}
			report, err := New(WithGrace(100*time.Millisecond)).Run(ctx, in, faulty, honest)
			if err != nil {
				t.Fatalf("honest optimizer should carry the run: %v", err)
			}
			if report.Best == nil || !report.Best.Certified {
				t.Fatal("merged result not certified")
			}
			if report.Best.Winner != honest.Name() {
				t.Fatalf("winner %q, want the honest %q", report.Best.Winner, honest.Name())
			}
			if !in.ValidSequence(report.Best.Sequence) {
				t.Fatal("merged sequence is not a valid permutation")
			}
			// Recomputed cost must equal the reported cost (the issue's
			// acceptance check, applied through the independent auditor).
			cert, aerr := certify.QON(in, report.Best.Sequence, report.Best.Cost, report.Best.Exact)
			if aerr != nil {
				t.Fatalf("merged result fails re-audit: %v", aerr)
			}
			if !cert.Recomputed.Equal(report.Best.Cost) {
				t.Fatal("recomputed cost differs from reported cost")
			}
			found := false
			for _, name := range report.Quarantined {
				if name == faulty.Name() {
					found = true
				}
			}
			if !found {
				t.Fatalf("faulty optimizer not quarantined: %v", report.Quarantined)
			}
			var rec *RunRecord
			for i := range report.Runs {
				if report.Runs[i].Name == faulty.Name() {
					rec = &report.Runs[i]
				}
			}
			if rec == nil || !rec.Quarantined {
				t.Fatalf("faulty run record not quarantined: %+v", rec)
			}
			if !strings.Contains(rec.Err, ErrQuarantined.Error()) {
				t.Fatalf("quarantine not surfaced in the record error: %q", rec.Err)
			}
			// The quarantine must survive the -json surface.
			blob, err := json.Marshal(report)
			if err != nil {
				t.Fatal(err)
			}
			var back Report
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatal(err)
			}
			if len(back.Quarantined) == 0 || back.Quarantined[0] != faulty.Name() {
				t.Fatalf("quarantine lost in JSON round trip: %v", back.Quarantined)
			}
		})
	}
}

// An adversarial ensemble with no honest member must fail structurally:
// ErrAllFailed, never an uncertified merge.
func TestRunAllAdversarialFails(t *testing.T) {
	in := randomInstance(6, 0.7, 12)
	report, err := New().Run(context.Background(), in,
		chaos.Wrap(opt.NewGreedy(opt.GreedyMinSize), chaos.FaultWrongCost),
		chaos.Wrap(opt.NewGreedy(opt.GreedyMinCost), chaos.FaultInvalidPlan))
	if !errors.Is(err, ErrAllFailed) {
		t.Fatalf("err = %v, want ErrAllFailed", err)
	}
	if report == nil || report.Best != nil {
		t.Fatal("no result may survive an all-adversarial ensemble")
	}
	for _, rec := range report.Runs {
		if rec.Certified {
			t.Fatalf("%s: corrupted result certified", rec.Name)
		}
		if !strings.Contains(rec.Err, ErrUncertified.Error()) && !strings.Contains(rec.Err, ErrQuarantined.Error()) {
			t.Fatalf("%s: error %q carries no taxonomy", rec.Name, rec.Err)
		}
	}
	if len(report.Quarantined) != 2 {
		t.Fatalf("both adversaries should be quarantined, got %v", report.Quarantined)
	}
}

// countingOptimizer counts the Optimize calls reaching the optimizer
// it wraps.
type countingOptimizer struct {
	opt.Optimizer
	calls atomic.Int64
}

func (c *countingOptimizer) Optimize(ctx context.Context, in *qon.Instance) (*opt.Result, error) {
	c.calls.Add(1)
	return c.Optimizer.Optimize(ctx, in)
}

// Every optimizer is deterministic for its seed, so the engine runs
// each one once: a failing optimizer is called exactly once and
// quarantined on that failure.
func TestRunCallsFailingOptimizerOnce(t *testing.T) {
	for _, fault := range []chaos.Fault{chaos.FaultError, chaos.FaultPanic, chaos.FaultWrongCost} {
		in := randomInstance(6, 0.7, 13)
		faulty := &countingOptimizer{Optimizer: chaos.Wrap(opt.NewGreedy(opt.GreedyMinSize), fault)}
		report, err := New().Run(context.Background(), in, faulty)
		if !errors.Is(err, ErrAllFailed) {
			t.Fatalf("%s: err = %v, want ErrAllFailed", fault, err)
		}
		if got := faulty.calls.Load(); got != 1 {
			t.Errorf("%s: optimizer called %d times, want 1", fault, got)
		}
		rec := report.Runs[0]
		if !rec.Quarantined || !strings.HasPrefix(rec.Err, ErrQuarantined.Error()+": ") {
			t.Errorf("%s: run not quarantined on its failure: quarantined=%v err=%q", fault, rec.Quarantined, rec.Err)
		}
	}
}

// blockingOptimizer waits for cancellation and reports it — a
// cooperative optimizer with nothing to salvage.
type blockingOptimizer struct{}

func (blockingOptimizer) Name() string { return "blocking-stub" }

func (blockingOptimizer) Optimize(ctx context.Context, in *qon.Instance) (*opt.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// An error returned because the early exit cancelled the run is the
// cancellation's doing, not the optimizer's: it is recorded, but never
// quarantined, so it cannot trip a serving breaker.
func TestRunDoesNotQuarantineEarlyExitCancellation(t *testing.T) {
	in := randomInstance(6, 0.7, 14)
	e := New()
	report, err := e.Run(context.Background(), in, opt.NewDP(), blockingOptimizer{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Best == nil || report.Best.Winner != "subset-dp" || !report.Best.Exact {
		t.Fatalf("exact DP should win: %+v", report.Best)
	}
	rec := report.Runs[1]
	if !strings.Contains(rec.Err, context.Canceled.Error()) {
		t.Fatalf("cancelled run error = %q, want the cancellation", rec.Err)
	}
	if rec.Quarantined || len(report.Quarantined) != 0 {
		t.Fatalf("early-exit cancellation quarantined: %+v (report %v)", rec, report.Quarantined)
	}
	if h := e.Health(); h.Quarantined != 0 || len(h.ErrKinds) != 1 || h.ErrKinds[0] != "error" {
		t.Fatalf("health after early exit: %+v", h)
	}
}

// Panicked runs must carry the recovered panic value and a stack
// summary pointing at the crash site (satellite 1).
func TestRunRecordsPanicValueAndStack(t *testing.T) {
	in := randomInstance(6, 0.7, 16)
	report, _ := New().Run(context.Background(), in,
		chaos.Wrap(opt.NewGreedy(opt.GreedyMinSize), chaos.FaultPanic, chaos.WithSeed(9)))
	rec := report.Runs[0]
	if !rec.Panicked || !rec.Quarantined {
		t.Fatalf("panic not recorded: %+v", rec)
	}
	if want := "chaos: injected panic in greedy-min-size (seed 9, call 1)"; rec.PanicValue != want {
		t.Fatalf("panic value = %q, want %q", rec.PanicValue, want)
	}
	// The summary starts at the panicking frame, below the recover
	// machinery and the runtime's panic frames.
	if !strings.HasPrefix(rec.PanicStack, "approxqo/internal/chaos.(*Injector).Optimize (chaos.go:") {
		t.Fatalf("stack summary does not start at the crash site: %q", rec.PanicStack)
	}
	blob, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "panic_value") {
		t.Fatal("panic value missing from JSON report")
	}
}

// Satellite 3: structured errors on degenerate inputs.
func TestRunStructuredInputErrors(t *testing.T) {
	in := randomInstance(4, 1.0, 17)

	if _, err := New().Run(context.Background(), in); !errors.Is(err, ErrNoOptimizers) {
		t.Fatalf("empty ensemble: err = %v, want ErrNoOptimizers", err)
	}
	if _, err := New().Run(context.Background(), nil, opt.NewGreedy(opt.GreedyMinSize)); !errors.Is(err, ErrNilInstance) {
		t.Fatalf("nil instance: err = %v, want ErrNilInstance", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New().Run(ctx, in, opt.NewGreedy(opt.GreedyMinSize)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: err = %v, want context.Canceled", err)
	}

	// The QO_H entry point enforces the same taxonomy.
	if _, err := New().RunQOH(context.Background(), nil); !errors.Is(err, ErrNilInstance) {
		t.Fatalf("RunQOH nil instance: err = %v, want ErrNilInstance", err)
	}
}

// A leak fault answers honestly, so it must NOT be quarantined — only
// actually-faulty behavior trips the breaker.
func TestRunDoesNotQuarantineLeaks(t *testing.T) {
	in := randomInstance(6, 0.7, 18)
	leaky := chaos.Wrap(opt.NewGreedy(opt.GreedyMinSize), chaos.FaultLeak,
		chaos.WithLeakHold(10*time.Millisecond))
	report, err := New().Run(context.Background(), in, leaky)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Quarantined) != 0 {
		t.Fatalf("honest-but-leaky optimizer quarantined: %v", report.Quarantined)
	}
	if report.Best == nil || !report.Best.Certified {
		t.Fatal("leaky run should still win with a certified result")
	}
	time.Sleep(20 * time.Millisecond) // drain the leaked goroutine before -race exit checks
}
