package engine

import (
	"context"
	"errors"
	"fmt"

	"approxqo/internal/certify"
	"approxqo/internal/opt"
	"approxqo/internal/qoh"
	"approxqo/internal/stats"
)

// QOHSearcher is one QO_H plan-search strategy the engine can
// supervise. Search must honour context cancellation like an
// opt.Optimizer: anytime strategies return their best feasible plan so
// far.
type QOHSearcher struct {
	Name   string
	Search func(ctx context.Context, in *qoh.Instance) (*qoh.Plan, error)
}

// QOHSearchers returns the standard QO_H ensemble: greedy, annealing,
// and — within its cap — exhaustive sequence enumeration. Options are
// forwarded to the opt searchers (WithSeed, WithIterations).
func QOHSearchers(opts ...opt.Option) []QOHSearcher {
	return []QOHSearcher{
		{Name: "qoh-greedy", Search: func(ctx context.Context, in *qoh.Instance) (*qoh.Plan, error) {
			return opt.QOHGreedy(ctx, in, opts...)
		}},
		{Name: "qoh-annealing", Search: func(ctx context.Context, in *qoh.Instance) (*qoh.Plan, error) {
			return opt.QOHAnnealing(ctx, in, opts...)
		}},
		{Name: "qoh-exhaustive", Search: func(ctx context.Context, in *qoh.Instance) (*qoh.Plan, error) {
			if in.N() > qoh.MaxExhaustiveN {
				return nil, fmt.Errorf("engine: QO_H exhaustive capped at n ≤ %d, got %d", qoh.MaxExhaustiveN, in.N())
			}
			return in.ExactBest()
		}},
	}
}

// RunQOH is Run for the QO_H plan search: it supervises the searchers
// concurrently over in with the same cancellation, deadline, panic
// isolation, certification, single-attempt quarantine, grace and merge
// semantics, and the same per-run instrumentation (QO_H counts a cost
// evaluation per candidate sequence costed end to end and a DP subset
// per pipeline interval). The exhaustive searcher's winning plan is
// marked exact, triggering early exit like an exact QO_N result.
func (e *Engine) RunQOH(ctx context.Context, in *qoh.Instance, searchers ...QOHSearcher) (*Report, error) {
	if in == nil {
		return nil, ErrNilInstance
	}
	if len(searchers) == 0 {
		return nil, fmt.Errorf("%w (QO_H searchers)", ErrNoOptimizers)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: context done before any run started: %w", err)
	}
	jobs := make([]job, len(searchers))
	sinks := make([]stats.Stats, len(searchers))
	for i, s := range searchers {
		sink := &sinks[i]
		instrumented := in.WithStats(sink)
		exact := s.Name == "qoh-exhaustive"
		j := &jobs[i]
		j.name = s.Name
		j.sink = sink
		j.run = func(ctx context.Context) (*jobResult, error) {
			p, err := s.Search(ctx, instrumented)
			if err != nil || p == nil {
				if err == nil {
					err = errors.New("searcher returned no plan")
				}
				return nil, err
			}
			return &jobResult{seq: p.Z, breaks: p.Breaks, cost: p.Cost, exact: exact}, nil
		}
		j.audit = func(r *jobResult) error {
			_, err := certify.QOH(in, r.seq, r.breaks, r.cost, r.exact)
			return err
		}
	}
	report, best := e.supervise(ctx, "qoh", jobs)
	report.Model = "qoh"
	report.N = in.N()
	report.Best = best
	if best == nil {
		return report, fmt.Errorf("%w: %s", ErrAllFailed, firstFailure(report.Runs))
	}
	return report, nil
}
