package opt

import (
	"context"
	"testing"

	"approxqo/internal/stats"
)

// Anytime algorithms must return a usable best-so-far result — not an
// error — when the context is already cancelled at entry.
func TestAnytimeOptimizersReturnBestSoFarWhenCancelled(t *testing.T) {
	in := randomInstance(8, 0.6, 5)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, o := range []Optimizer{
		NewGreedy(GreedyMinSize),
		NewGreedy(GreedyMinCost),
		NewKBZ(),
		NewAnnealing(WithSeed(1)),
		NewRandomSampler(WithSeed(1)),
		NewIterativeImprovement(WithSeed(1)),
	} {
		r, err := o.Optimize(done, in)
		if err != nil {
			t.Fatalf("%s: anytime optimizer errored on cancelled context: %v", o.Name(), err)
		}
		if r == nil || !in.ValidSequence(r.Sequence) {
			t.Fatalf("%s: no valid best-so-far sequence", o.Name())
		}
		if !in.Cost(r.Sequence).Equal(r.Cost) {
			t.Fatalf("%s: reported cost does not match sequence", o.Name())
		}
	}
}

// The exact DPs have no partial plan, so a cancelled context must
// surface as the context's error.
func TestExactDPsErrorWhenCancelled(t *testing.T) {
	in := randomInstance(14, 0.6, 6)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, o := range []Optimizer{NewDP(), NewDPParallel()} {
		if _, err := o.Optimize(done, in); err == nil {
			t.Errorf("%s: expected error on cancelled context", o.Name())
		}
	}
}

// WithStats must observe cost evaluations for both cooperative
// (cost-calling) and batch-counting (DP) optimizers.
func TestWithStatsCountsEvaluations(t *testing.T) {
	in := randomInstance(7, 0.7, 8)
	for _, o := range []Optimizer{
		NewAnnealing(WithSeed(2), WithIterations(50)),
		NewDP(),
		NewDPNoCross(),
		NewDPParallel(),
		NewGreedy(GreedyMinCost),
		NewKBZ(),
	} {
		st := &stats.Stats{}
		var wrapped Optimizer
		switch v := o.(type) {
		case Annealing:
			wrapped = NewAnnealing(WithSeed(2), WithIterations(50), WithStats(st))
		case DP:
			wrapped = newDP(v.variant, []Option{WithStats(st)})
		case Greedy:
			wrapped = NewGreedy(v.rule, WithStats(st))
		case KBZ:
			wrapped = NewKBZ(WithStats(st))
		}
		if _, err := wrapped.Optimize(context.Background(), in); err != nil {
			t.Fatalf("%s: %v", wrapped.Name(), err)
		}
		if snap := st.Snapshot(); snap.CostEvals == 0 {
			t.Errorf("%s: no cost evaluations recorded", wrapped.Name())
		}
	}
}

// An engine-attached (instance-level) sink must win over a
// constructor-level one, keeping per-run counts per-run.
func TestInstanceStatsWinOverOption(t *testing.T) {
	in := randomInstance(6, 0.7, 9)
	ctor := &stats.Stats{}
	run := &stats.Stats{}
	o := NewGreedy(GreedyMinSize, WithStats(ctor))
	if _, err := o.Optimize(context.Background(), in.WithStats(run)); err != nil {
		t.Fatal(err)
	}
	if run.Snapshot().CostEvals == 0 {
		t.Error("instance-level sink saw no evaluations")
	}
	if ctor.Snapshot().CostEvals != 0 {
		t.Error("constructor sink counted despite instance-level sink")
	}
}
