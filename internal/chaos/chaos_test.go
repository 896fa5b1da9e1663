package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"approxqo/internal/certify"
	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/opt"
	"approxqo/internal/qon"
)

func testInstance(t *testing.T) *qon.Instance {
	t.Helper()
	in := qon.NewUniform(graph.Complete(4), num.FromInt64(8), num.Pow2(-1), num.FromInt64(4))
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestWrapIsTransparent(t *testing.T) {
	inner := opt.NewGreedy(opt.GreedyMinSize)
	j := Wrap(inner, FaultLeak, WithLeakHold(time.Millisecond))
	if j.Name() != inner.Name() {
		t.Fatalf("injector name %q, want the wrapped %q", j.Name(), inner.Name())
	}
	if j.Fault() != FaultLeak {
		t.Fatalf("fault = %q", j.Fault())
	}
	// A leak fault still answers honestly.
	r, err := j.Optimize(context.Background(), testInstance(t))
	if err != nil || r == nil {
		t.Fatalf("leak fault must not corrupt results: %v", err)
	}
	if _, err := certify.QON(testInstance(t), r.Sequence, r.Cost, r.Exact); err != nil {
		t.Fatalf("leaked-but-honest result failed audit: %v", err)
	}
}

func TestWrapPanicsOnUnknownFault(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Wrap accepted an unknown fault")
		}
	}()
	Wrap(opt.NewGreedy(opt.GreedyMinSize), Fault("meltdown"))
}

func TestPanicFaultIsDeterministic(t *testing.T) {
	in := testInstance(t)
	capture := func(seed int64) (msg string) {
		defer func() { msg, _ = recover().(string) }()
		j := Wrap(opt.NewGreedy(opt.GreedyMinSize), FaultPanic, WithSeed(seed))
		j.Optimize(context.Background(), in)
		return ""
	}
	a, b := capture(7), capture(7)
	if a == "" || a != b {
		t.Fatalf("panic not deterministic: %q vs %q", a, b)
	}
	if !strings.Contains(a, "seed 7") || !strings.Contains(a, "injected panic") {
		t.Fatalf("panic value does not identify the injection: %q", a)
	}
	if c := capture(8); c == a {
		t.Fatal("different seeds produced identical panic values")
	}
}

func TestWrongCostFaultUnderstatesExactly(t *testing.T) {
	in := testInstance(t)
	inner := opt.NewGreedy(opt.GreedyMinSize)
	honest, err := inner.Optimize(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	j := Wrap(opt.NewGreedy(opt.GreedyMinSize), FaultWrongCost)
	lied, err := j.Optimize(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !lied.Cost.Equal(honest.Cost.Mul(num.Pow2(-1))) {
		t.Fatal("wrongcost fault did not halve the cost")
	}
	// The corruption must be exactly what the auditor catches.
	if _, err := certify.QON(in, lied.Sequence, lied.Cost, lied.Exact); !errors.Is(err, certify.ErrCostMismatch) {
		t.Fatalf("audit err = %v, want ErrCostMismatch", err)
	}
}

func TestInvalidPlanFaultBreaksBijection(t *testing.T) {
	in := testInstance(t)
	j := Wrap(opt.NewGreedy(opt.GreedyMinSize), FaultInvalidPlan)
	r, err := j.Optimize(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if in.ValidSequence(r.Sequence) {
		t.Fatal("invalidplan fault returned a valid permutation")
	}
	if _, err := certify.QON(in, r.Sequence, r.Cost, r.Exact); !errors.Is(err, certify.ErrInvalidPlan) {
		t.Fatalf("audit err = %v, want ErrInvalidPlan", err)
	}
}

func TestErrorFault(t *testing.T) {
	in := testInstance(t)
	j := Wrap(opt.NewGreedy(opt.GreedyMinSize), FaultError, WithSeed(4))
	for call := 1; call <= 3; call++ {
		r, err := j.Optimize(context.Background(), in)
		want := fmt.Sprintf("chaos: injected spurious error from greedy-min-size (seed 4, call %d)", call)
		if r != nil || err == nil || err.Error() != want {
			t.Fatalf("call %d: got (%v, %v), want the injected error %q", call, r, err, want)
		}
	}
}

func TestStallFaultIgnoresContext(t *testing.T) {
	in := testInstance(t)
	j := Wrap(opt.NewGreedy(opt.GreedyMinSize), FaultStall, WithStall(50*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: a cooperative optimizer would return at once
	start := time.Now()
	j.Optimize(ctx, in)
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("stall fault honoured cancellation after %v", elapsed)
	}
}

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec(" wrongcost:greedy-min-size, panic , stall:* ")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Fault: FaultWrongCost, Target: "greedy-min-size"},
		{Fault: FaultPanic, Target: ""},
		{Fault: FaultStall, Target: "*"},
	}
	if len(rules) != len(want) {
		t.Fatalf("rules = %v", rules)
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Errorf("rule %d = %v, want %v", i, rules[i], want[i])
		}
	}
	if !rules[0].Matches("greedy-min-size") || rules[0].Matches("kbz") {
		t.Fatal("targeted rule match broken")
	}
	if !rules[1].Matches("anything") || !rules[2].Matches("anything") {
		t.Fatal("wildcard rules must match every optimizer")
	}
	if _, err := ParseSpec("meltdown:dp"); err == nil {
		t.Fatal("unknown fault accepted")
	}
	if rules, err := ParseSpec(""); err != nil || rules != nil {
		t.Fatalf("empty spec: %v, %v", rules, err)
	}
}

func TestApplyWrapsFirstMatchOnly(t *testing.T) {
	optimizers := []opt.Optimizer{
		opt.NewGreedy(opt.GreedyMinSize),
		opt.NewGreedy(opt.GreedyMinCost),
	}
	wrapped, err := ApplySpec("error:greedy-min-size,panic:greedy-min-size", optimizers)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := wrapped[0].(*Injector)
	if !ok || j.Fault() != FaultError {
		t.Fatalf("first matching rule should win, got %T", wrapped[0])
	}
	if _, ok := wrapped[1].(*Injector); ok {
		t.Fatal("unmatched optimizer was wrapped")
	}
}
