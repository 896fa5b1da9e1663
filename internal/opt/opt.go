// Package opt implements join-order optimizers over the QO_N cost
// model: an exact subset dynamic program that exploits the fact that
// N(X) is a set function (serial, parallel and cartesian-product-free)
// and the polynomial-time heuristics whose competitive ratios the
// paper's theorems bound from below — greedy, the Ibaraki–Kameda/KBZ
// rank algorithm for tree queries (with a spanning-tree fallback for
// cyclic graphs), simulated annealing, iterative improvement and random
// sampling — plus QO_H sequence search.
//
// The heuristics rank candidates by float64 log₂ costs and make every
// such decision through qon.CmpLog2, which re-decides a margin inside
// the guard band in exact arithmetic, so each returns the sequence and
// the bit-identical cost an all-exact search returns.
//
// Every optimizer takes a context and honours cancellation: the anytime
// algorithms (greedy, KBZ, annealing, iterative improvement, random
// sampling) return the best complete sequence found so far when the
// context expires, while the exact DPs — which have no plan until the
// final subset — return the context's error. Constructors are
// configured with functional options (WithSeed, WithMaxRelations,
// WithStats, …); instrumentation counters ride on the instance (see
// qon.Instance.WithStats) so the cost model itself counts evaluations.
package opt

import (
	"context"
	"fmt"

	"approxqo/internal/num"
	"approxqo/internal/qon"
)

// Result is the outcome of one optimization run.
type Result struct {
	Sequence qon.Sequence
	Cost     num.Num
	// Exact reports whether Cost is certified optimal over all n!
	// sequences. An optimum over a restricted search space (NewDPNoCross)
	// is not exact.
	Exact bool
}

// Optimizer finds a join sequence for a QO_N instance.
type Optimizer interface {
	// Name identifies the algorithm for reports.
	Name() string
	// Optimize returns the best sequence found. Implementations return
	// an error when the instance is outside their applicable range
	// (size caps for the exact algorithms, tree-shape requirements…) or
	// when the context is cancelled before any complete sequence
	// exists; anytime algorithms return their best-so-far result (with
	// a nil error) on cancellation.
	Optimize(ctx context.Context, in *qon.Instance) (*Result, error)
}

// cancelled reports whether ctx is done, without blocking.
func cancelled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// Heuristics returns the polynomial-time optimizer ensemble used by the
// competitive-ratio experiments. Options apply to every member; the
// random sampler's seed is offset by one so it never mirrors the
// annealer's walk.
func Heuristics(opts ...Option) []Optimizer {
	o := buildOptions(opts)
	sampler := append(append([]Option(nil), opts...), WithSeed(o.seed+1))
	return []Optimizer{
		NewGreedy(GreedyMinSize, opts...),
		NewGreedy(GreedyMinCost, opts...),
		NewKBZ(opts...),
		NewAnnealing(opts...),
		NewRandomSampler(sampler...),
	}
}

// BestOf runs every optimizer in turn and returns the cheapest result
// along with the name of the winning algorithm. Optimizers that error
// (e.g. out of range) are skipped; an error is returned only if all
// fail. For concurrent execution with deadlines, panic isolation and a
// structured report, use the engine package instead.
func BestOf(ctx context.Context, in *qon.Instance, optimizers ...Optimizer) (*Result, string, error) {
	var best *Result
	var winner string
	var firstErr error
	for _, o := range optimizers {
		r, err := o.Optimize(ctx, in)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", o.Name(), err)
			}
			continue
		}
		if best == nil || r.Cost.Less(best.Cost) {
			best, winner = r, o.Name()
		}
	}
	if best == nil {
		return nil, "", fmt.Errorf("opt: every optimizer failed: %w", firstErr)
	}
	return best, winner, nil
}
