// Package chaos provides injectable fault wrappers around any
// opt.Optimizer, so the ensemble engine's certification gate,
// quarantine and abandonment paths can be exercised end-to-end — in
// tests, and from the command line via qopt -chaos.
//
// Every wrapper is deterministic given its seed: the same seed and call
// sequence produce the same panics, the same corrupted costs and the
// same error text, so a chaos run that exposes a bug is replayable.
// Faults model the ways a real component misbehaves:
//
//   - FaultPanic — the optimizer crashes mid-run;
//   - FaultStall — it ignores cancellation and blocks past any deadline;
//   - FaultWrongCost — it returns a valid plan with an understated cost
//     (the adversarial case: a lie that would win the merge);
//   - FaultInvalidPlan — it returns a sequence that is not a
//     permutation;
//   - FaultError — it fails with a spurious error;
//   - FaultLeak — it answers correctly but leaks a slow goroutine per
//     call.
//
// Every fault fires on every call.
package chaos

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"approxqo/internal/num"
	"approxqo/internal/opt"
	"approxqo/internal/qon"
)

// Fault names one injectable failure mode.
type Fault string

// The supported failure modes (see the package comment).
const (
	FaultPanic       Fault = "panic"
	FaultStall       Fault = "stall"
	FaultWrongCost   Fault = "wrongcost"
	FaultInvalidPlan Fault = "invalidplan"
	FaultError       Fault = "error"
	FaultLeak        Fault = "leak"
)

// Faults lists every supported fault, in the order used by docs and
// the -chaos spec grammar.
func Faults() []Fault {
	return []Fault{FaultPanic, FaultStall, FaultWrongCost, FaultInvalidPlan, FaultError, FaultLeak}
}

func validFault(f Fault) bool {
	for _, v := range Faults() {
		if v == f {
			return true
		}
	}
	return false
}

// DefaultStall is how long a FaultStall wrapper blocks while ignoring
// its context — far past any per-run deadline plus grace window, so the
// engine's abandonment path fires.
const DefaultStall = 30 * time.Second

// DefaultLeakHold is how long a FaultLeak goroutine lingers.
const DefaultLeakHold = 5 * time.Second

// Option configures an Injector.
type Option func(*Injector)

// WithSeed seeds the injector's deterministic behavior (panic values
// embed it, so a crash identifies its injection).
func WithSeed(seed int64) Option { return func(j *Injector) { j.seed = seed } }

// WithStall sets how long FaultStall blocks (default DefaultStall).
func WithStall(d time.Duration) Option { return func(j *Injector) { j.stall = d } }

// WithLeakHold sets how long each FaultLeak goroutine lingers (default
// DefaultLeakHold).
func WithLeakHold(d time.Duration) Option { return func(j *Injector) { j.leakHold = d } }

// Injector wraps an optimizer with one fault. It is transparent to the
// engine — Name reports the wrapped optimizer's name, so reports and
// quarantine records identify the real component that (apparently)
// misbehaved.
type Injector struct {
	inner    opt.Optimizer
	fault    Fault
	seed     int64
	stall    time.Duration
	leakHold time.Duration

	calls atomic.Int64
}

// Wrap returns inner with the given fault injected. It panics on an
// unknown fault — misconfigured chaos is a programming error, not a
// runtime condition.
func Wrap(inner opt.Optimizer, fault Fault, opts ...Option) *Injector {
	if !validFault(fault) {
		panic(fmt.Sprintf("chaos: unknown fault %q", fault))
	}
	j := &Injector{inner: inner, fault: fault, stall: DefaultStall, leakHold: DefaultLeakHold}
	for _, apply := range opts {
		apply(j)
	}
	return j
}

// Name reports the wrapped optimizer's name.
func (j *Injector) Name() string { return j.inner.Name() }

// Fault reports the injected failure mode.
func (j *Injector) Fault() Fault { return j.fault }

// Optimize injects the configured fault, then (where the fault permits)
// delegates to the wrapped optimizer.
func (j *Injector) Optimize(ctx context.Context, in *qon.Instance) (*opt.Result, error) {
	call := j.calls.Add(1)
	switch j.fault {
	case FaultPanic:
		panic(fmt.Sprintf("chaos: injected panic in %s (seed %d, call %d)", j.Name(), j.seed, call))
	case FaultStall:
		// Deliberately ignore ctx: this is the uncooperative component
		// the engine must abandon rather than wait for.
		time.Sleep(j.stall)
		return j.inner.Optimize(ctx, in)
	case FaultError:
		return nil, fmt.Errorf("chaos: injected spurious error from %s (seed %d, call %d)", j.Name(), j.seed, call)
	case FaultWrongCost:
		r, err := j.inner.Optimize(ctx, in)
		if err != nil || r == nil {
			return r, err
		}
		// Understate by exactly half: dyadic, so the corruption is exact
		// and never masked by rounding — the lie that would win a
		// cheapest-first merge without a certification gate.
		return &opt.Result{Sequence: r.Sequence, Cost: r.Cost.Mul(num.Pow2(-1)), Exact: r.Exact}, nil
	case FaultInvalidPlan:
		r, err := j.inner.Optimize(ctx, in)
		if err != nil || r == nil {
			return r, err
		}
		seq := append(qon.Sequence(nil), r.Sequence...)
		if len(seq) >= 2 {
			seq[0] = seq[1] // duplicate a vertex: no longer a bijection
		} else {
			seq = append(seq, seq...)
		}
		return &opt.Result{Sequence: seq, Cost: r.Cost, Exact: r.Exact}, nil
	case FaultLeak:
		hold := j.leakHold
		go func() { time.Sleep(hold) }()
		return j.inner.Optimize(ctx, in)
	}
	panic(fmt.Sprintf("chaos: unknown fault %q", j.fault)) // unreachable: Wrap validates
}
