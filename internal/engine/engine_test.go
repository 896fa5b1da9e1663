package engine

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/opt"
	"approxqo/internal/qon"
	"approxqo/internal/workload"
)

// randomInstance builds a random valid QO_N instance (edge access costs
// at their lower bound t·s, as in the reductions).
func randomInstance(n int, p float64, seed int64) *qon.Instance {
	rng := rand.New(rand.NewSource(seed))
	q := graph.Random(n, p, seed)
	in := &qon.Instance{Q: q, T: make([]num.Num, n)}
	for i := range in.T {
		in.T[i] = num.FromInt64(int64(rng.Intn(500) + 2))
	}
	in.S = make([][]num.Num, n)
	in.W = make([][]num.Num, n)
	for i := 0; i < n; i++ {
		in.S[i] = make([]num.Num, n)
		in.W[i] = make([]num.Num, n)
	}
	for i := 0; i < n; i++ {
		in.S[i][i] = num.One()
		in.W[i][i] = in.T[i]
		for j := 0; j < i; j++ {
			if q.HasEdge(i, j) {
				s := num.FromFloat64(float64(rng.Intn(15)+1) / 16)
				in.S[i][j], in.S[j][i] = s, s
				in.W[i][j] = in.T[i].Mul(s)
				in.W[j][i] = in.T[j].Mul(s)
			} else {
				in.S[i][j], in.S[j][i] = num.One(), num.One()
				in.W[i][j], in.W[j][i] = in.T[i], in.T[j]
			}
		}
	}
	return in
}

// slowOptimizer cooperates with cancellation but would otherwise run
// for a very long time, improving as it goes — a stand-in for any
// anytime search. It returns its best-so-far on ctx.Done.
type slowOptimizer struct {
	delay time.Duration
}

func (slowOptimizer) Name() string { return "slow-stub" }

func (s slowOptimizer) Optimize(ctx context.Context, in *qon.Instance) (*opt.Result, error) {
	n := in.N()
	seq := make(qon.Sequence, n)
	for i := range seq {
		seq[i] = i
	}
	best := &opt.Result{Sequence: seq, Cost: in.Cost(seq)}
	for {
		select {
		case <-ctx.Done():
			return best, nil
		case <-time.After(s.delay):
		}
	}
}

// hangingOptimizer ignores its context entirely — the worst-behaved
// citizen the engine must survive.
type hangingOptimizer struct{ release chan struct{} }

func (hangingOptimizer) Name() string { return "hanging-stub" }

func (h hangingOptimizer) Optimize(ctx context.Context, in *qon.Instance) (*opt.Result, error) {
	<-h.release
	return nil, context.Canceled
}

// panickingOptimizer crashes mid-run.
type panickingOptimizer struct{}

func (panickingOptimizer) Name() string { return "panicking-stub" }

func (panickingOptimizer) Optimize(ctx context.Context, in *qon.Instance) (*opt.Result, error) {
	panic("deliberate test panic")
}

// failingOptimizer always errors (out-of-range style).
type failingOptimizer struct{}

func (failingOptimizer) Name() string { return "failing-stub" }

func (failingOptimizer) Optimize(ctx context.Context, in *qon.Instance) (*opt.Result, error) {
	return nil, context.DeadlineExceeded
}

// The tentpole guarantee: a deadline run over a slow anytime optimizer
// still produces its best-so-far result, not an error.
func TestRunReturnsBestSoFarOnTimeout(t *testing.T) {
	in := randomInstance(8, 0.7, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	report, err := New().Run(ctx, in, slowOptimizer{delay: time.Millisecond})
	if err != nil {
		t.Fatalf("expected best-so-far result, got error: %v", err)
	}
	if report.Best == nil || len(report.Best.Sequence) != 8 {
		t.Fatal("no usable best result in report")
	}
	if report.Best.Winner != "slow-stub" {
		t.Fatalf("unexpected winner %q", report.Best.Winner)
	}
}

// Acceptance criterion from the issue: 50ms deadline, 24-relation
// clique, heuristic ensemble — a non-nil result, not an error.
func TestAcceptanceCliqueUnderDeadline(t *testing.T) {
	in := randomInstance(24, 1.0, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	report, err := New().Run(ctx, in, opt.Heuristics(opt.WithSeed(7))...)
	if err != nil {
		t.Fatalf("clique under deadline errored: %v", err)
	}
	if report.Best == nil || len(report.Best.Sequence) != 24 {
		t.Fatal("expected a complete 24-relation sequence")
	}
	if !in.ValidSequence(report.Best.Sequence) {
		t.Fatal("best sequence invalid")
	}
}

// BestOf semantics must survive the engine: erroring optimizers are
// skipped, the ensemble errors only when all fail.
func TestRunSkipsErroringOptimizers(t *testing.T) {
	in := randomInstance(6, 0.7, 3)
	report, err := New().Run(context.Background(), in,
		failingOptimizer{}, opt.NewGreedy(opt.GreedyMinSize))
	if err != nil {
		t.Fatalf("one healthy optimizer should carry the run: %v", err)
	}
	if report.Best.Winner != "greedy-min-size" {
		t.Fatalf("winner %q, want greedy-min-size", report.Best.Winner)
	}
	var failRec *RunRecord
	for i := range report.Runs {
		if report.Runs[i].Name == "failing-stub" {
			failRec = &report.Runs[i]
		}
	}
	if failRec == nil || failRec.Err == "" {
		t.Fatal("failing run not recorded with its error")
	}

	report, err = New().Run(context.Background(), in, failingOptimizer{}, failingOptimizer{})
	if err == nil {
		t.Fatal("all-failing ensemble must error")
	}
	if report == nil {
		t.Fatal("report should still be returned for inspection")
	}
}

func TestRunIsolatesPanics(t *testing.T) {
	in := randomInstance(6, 0.7, 4)
	report, err := New().Run(context.Background(), in,
		panickingOptimizer{}, opt.NewGreedy(opt.GreedyMinCost))
	if err != nil {
		t.Fatalf("panic leaked into the ensemble result: %v", err)
	}
	var rec *RunRecord
	for i := range report.Runs {
		if report.Runs[i].Name == "panicking-stub" {
			rec = &report.Runs[i]
		}
	}
	if rec == nil || !rec.Panicked || !strings.Contains(rec.Err, "deliberate test panic") {
		t.Fatalf("panic not recorded: %+v", rec)
	}
}

// An exact result should cancel the stragglers (early exit), and the
// slow anytime run should still deliver its best-so-far inside the
// grace window.
func TestRunEarlyExitOnExactResult(t *testing.T) {
	in := randomInstance(8, 0.7, 5)
	start := time.Now()
	report, err := New(WithGrace(time.Second)).Run(context.Background(), in,
		opt.NewDP(), slowOptimizer{delay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Best.Exact || report.Best.Winner != "subset-dp" {
		t.Fatalf("exact DP should win, got %q (exact=%v)", report.Best.Winner, report.Best.Exact)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("early exit did not fire, run took %v", elapsed)
	}
	for _, rec := range report.Runs {
		if rec.Name == "slow-stub" && rec.Cost == nil && !rec.Abandoned {
			t.Fatal("slow run neither delivered a result nor was abandoned")
		}
	}
}

// A run that ignores cancellation entirely must be abandoned after the
// grace period without wedging the engine, and its counters salvaged.
func TestRunAbandonsHangingOptimizer(t *testing.T) {
	in := randomInstance(6, 0.7, 6)
	release := make(chan struct{})
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	report, err := New(WithGrace(50*time.Millisecond)).Run(ctx, in,
		hangingOptimizer{release: release}, opt.NewGreedy(opt.GreedyMinSize))
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("engine wedged on a hanging optimizer")
	}
	var rec *RunRecord
	for i := range report.Runs {
		if report.Runs[i].Name == "hanging-stub" {
			rec = &report.Runs[i]
		}
	}
	if rec == nil || !rec.Abandoned {
		t.Fatalf("hanging run not marked abandoned: %+v", rec)
	}
}

// Per-run deadlines apply even when the caller's context is unbounded.
func TestRunPerRunTimeout(t *testing.T) {
	in := randomInstance(8, 0.7, 7)
	report, err := New(WithRunTimeout(30*time.Millisecond)).Run(context.Background(), in,
		slowOptimizer{delay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Runs[0].TimedOut {
		t.Fatalf("run not marked timed out: %+v", report.Runs[0])
	}
	if report.Best == nil {
		t.Fatal("anytime run under per-run deadline should still produce a result")
	}
}

// The report must carry wall time and non-zero cost-evaluation counts
// for every optimizer that ran, and survive a JSON round trip.
func TestReportInstrumentationAndJSON(t *testing.T) {
	in := randomInstance(9, 0.7, 8)
	ensemble := append(opt.Heuristics(opt.WithSeed(3)), opt.NewDP(), opt.NewIterativeImprovement(opt.WithSeed(3)))
	report, err := New(WithoutEarlyExit()).Run(context.Background(), in, ensemble...)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range report.Runs {
		if rec.Err != "" {
			continue
		}
		if rec.Stats.CostEvals == 0 {
			t.Errorf("%s: zero cost evaluations recorded", rec.Name)
		}
		if rec.WallMS < 0 {
			t.Errorf("%s: negative wall time", rec.Name)
		}
	}
	blob, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Best == nil || back.Best.Winner != report.Best.Winner {
		t.Fatal("report did not survive JSON round trip")
	}
	if !back.Best.Cost.Equal(report.Best.Cost) {
		t.Fatal("cost did not survive JSON round trip")
	}
	var sb strings.Builder
	report.WriteText(&sb)
	if !strings.Contains(sb.String(), "winner") {
		t.Fatal("text rendering missing winner line")
	}
}

// The engine's result must agree with sequential BestOf on the same
// ensemble (modulo equal-cost ties).
func TestRunMatchesBestOf(t *testing.T) {
	in := randomInstance(8, 0.7, 9)
	ensemble := func() []opt.Optimizer {
		return append(opt.Heuristics(opt.WithSeed(5)), opt.NewDP())
	}
	seq, _, err := opt.BestOf(context.Background(), in, ensemble()...)
	if err != nil {
		t.Fatal(err)
	}
	report, err := New(WithoutEarlyExit()).Run(context.Background(), in, ensemble()...)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Best.Cost.Equal(seq.Cost) {
		t.Fatalf("engine best 2^%.3f, BestOf 2^%.3f", report.Best.CostLog2, seq.Cost.Log2())
	}
}

// cannedOptimizer returns a fixed pre-computed result, optionally
// waiting for a release channel first — a deterministic way to stage
// equal-cost arrivals in a chosen order.
type cannedOptimizer struct {
	name    string
	res     *opt.Result
	release <-chan struct{}
}

func (c cannedOptimizer) Name() string { return c.name }

func (c cannedOptimizer) Optimize(ctx context.Context, in *qon.Instance) (*opt.Result, error) {
	if c.release != nil {
		select {
		case <-c.release:
		case <-ctx.Done():
		}
	}
	return &opt.Result{Sequence: c.res.Sequence, Cost: c.res.Cost, Exact: c.res.Exact}, nil
}

// On an equal-cost tie the exact result must win the merge even when a
// heuristic with the same plan arrives first — otherwise the report's
// winner claims a merely-certified cost for what is in fact the proven
// optimum, and downstream exactness checks flake on scheduling order.
func TestMergePrefersExactOnCostTie(t *testing.T) {
	in := randomInstance(7, 0.8, 11)
	optimum, err := opt.NewDP().Optimize(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	heuristic := cannedOptimizer{
		name: "tie-heuristic-stub",
		res:  &opt.Result{Sequence: optimum.Sequence, Cost: optimum.Cost, Exact: false},
	}
	exact := cannedOptimizer{
		name:    "tie-exact-stub",
		res:     &opt.Result{Sequence: optimum.Sequence, Cost: optimum.Cost, Exact: true},
		release: release,
	}
	// Release the exact stub only after a beat, so the heuristic's
	// arrival is (with overwhelming likelihood) merged first; the
	// assertion holds in either order, but this order exercises the
	// displacement path.
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	report, err := New(WithoutEarlyExit()).Run(context.Background(), in, heuristic, exact)
	if err != nil {
		t.Fatal(err)
	}
	if report.Best == nil {
		t.Fatal("no best result")
	}
	if !report.Best.Exact || report.Best.Winner != "tie-exact-stub" {
		t.Fatalf("tie went to %q (exact=%v); want the exact result to displace the tying heuristic",
			report.Best.Winner, report.Best.Exact)
	}
	if !report.Best.Cost.Equal(optimum.Cost) {
		t.Fatal("winner cost drifted from the computed optimum")
	}
}

// Between equally exact results of equal cost the member listed first
// in the ensemble wins, whichever arrives first: the late-released
// stub is listed first and must take the slot from the early one.
func TestMergeTieGoesToEnsemblePosition(t *testing.T) {
	in := randomInstance(7, 0.8, 12)
	optimum, err := opt.NewDP().Optimize(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for _, exact := range []bool{true, false} {
		release := make(chan struct{})
		res := &opt.Result{Sequence: optimum.Sequence, Cost: optimum.Cost, Exact: exact}
		first := cannedOptimizer{name: "listed-first-stub", res: res, release: release}
		second := cannedOptimizer{name: "listed-second-stub", res: res}
		go func() {
			time.Sleep(20 * time.Millisecond)
			close(release)
		}()
		report, err := New(WithoutEarlyExit()).Run(context.Background(), in, first, second)
		if err != nil {
			t.Fatal(err)
		}
		if report.Best == nil || report.Best.Winner != "listed-first-stub" {
			t.Fatalf("exact=%v: tie went to %+v, want the first-listed member", exact, report.Best)
		}
	}
}

// The chain n=12 instance on which an ensemble of {no-cross DP, DP,
// parallel DP} used to serve the cross-product-free optimum as
// exact:true in 57 of 60 runs: the no-cross DP finished first, its
// exactness claim ended the run early, and the cheaper global optimum
// was cancelled. Every run must now serve the global optimum.
func TestChainN12RestrictedOptimumNeverServedExact(t *testing.T) {
	in, err := workload.Generate(workload.Params{Shape: workload.Chain, N: 12, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	optimum, err := opt.NewDP().Optimize(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := opt.NewDPNoCross().Optimize(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !optimum.Cost.Less(restricted.Cost) {
		t.Fatal("instance no longer separates the restricted and global optima; the regression pin is void")
	}
	if restricted.Exact {
		t.Fatal("no-cross DP claims global exactness")
	}
	eng := New()
	for i := 0; i < 20; i++ {
		report, err := eng.Run(context.Background(), in, opt.NewDPNoCross(), opt.NewDP(), opt.NewDPParallel())
		if err != nil {
			t.Fatal(err)
		}
		best := report.Best
		if !best.Exact || !best.Cost.Equal(optimum.Cost) || best.Winner == "subset-dp-no-cross" {
			t.Fatalf("run %d served %q at 2^%.4f exact=%v; global optimum is 2^%.4f",
				i, best.Winner, best.CostLog2, best.Exact, optimum.Cost.Log2())
		}
		if err := report.AuditExact(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}
