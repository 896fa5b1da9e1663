// Package stats provides the instrumentation counters shared by the
// cost models and optimizers: how many cost-function evaluations, DP
// subset expansions and local-search moves one optimization run
// performed. A *Stats is attached to a qon.Instance or qoh.Instance
// (see their WithStats methods) and incremented by the cost models
// themselves, so every optimizer — including ones written outside this
// repository — is measured without cooperating.
//
// All counters are atomic and every method is safe on a nil receiver,
// so instrumentation points never need to branch: an uninstrumented
// instance simply carries a nil *Stats and the increments are no-ops.
package stats

import "sync/atomic"

// Stats is a set of monotone counters for one optimization run. The
// zero value is ready to use. Safe for concurrent use; methods are
// no-ops on a nil receiver.
type Stats struct {
	costEvals atomic.Int64
	dpSubsets atomic.Int64
	moves     atomic.Int64
	fastEvals atomic.Int64
	fallbacks atomic.Int64
}

// CostEval records one evaluation of the cost function — a full join
// sequence costed, a DP extension candidate costed, or a QO_H
// decomposition solved for one candidate sequence.
func (s *Stats) CostEval() {
	if s != nil {
		s.costEvals.Add(1)
	}
}

// AddCostEvals records n cost-function evaluations at once (used by DP
// inner loops to batch the atomic per expanded state).
func (s *Stats) AddCostEvals(n int64) {
	if s != nil {
		s.costEvals.Add(n)
	}
}

// DPSubset records one dynamic-programming state (subset, split or
// pipeline interval) expanded.
func (s *Stats) DPSubset() {
	if s != nil {
		s.dpSubsets.Add(1)
	}
}

// Move records one local-search move attempted (annealing swap or
// reinsert, iterative-improvement exchange).
func (s *Stats) Move() {
	if s != nil {
		s.moves.Add(1)
	}
}

// FastEval records one log-domain (float64) cost evaluation — the
// Tier-1 fast path that ranks candidates without exact arithmetic.
// Exact evaluations keep going through CostEval, so the tier split is
// fast_evals vs cost_evals.
func (s *Stats) FastEval() {
	if s != nil {
		s.fastEvals.Add(1)
	}
}

// Fallback records one guard-band trigger: a log-domain comparison too
// close to call (|Δlog₂| within the guard band) that was re-decided in
// exact num.Num arithmetic.
func (s *Stats) Fallback() {
	if s != nil {
		s.fallbacks.Add(1)
	}
}

// Snapshot is a point-in-time copy of the counters, JSON-serializable
// for engine reports.
type Snapshot struct {
	CostEvals int64 `json:"cost_evals"`
	DPSubsets int64 `json:"dp_subsets,omitempty"`
	Moves     int64 `json:"moves,omitempty"`
	FastEvals int64 `json:"fast_evals,omitempty"`
	Fallbacks int64 `json:"fallbacks,omitempty"`
}

// Snapshot reads the counters. Safe while writers are still running (it
// is used to report on abandoned optimizers); a nil receiver yields a
// zero Snapshot.
//
// Each field is read atomically, but three separate loads are not one
// consistent cut: an optimizer still running during grace-period
// abandonment can increment costEvals between the costEvals and moves
// loads, yielding a snapshot that mixes two instants. Since every
// counter is monotone this can never under-report a finished run, but
// a mid-run snapshot could pair a newer costEvals with an older moves.
// To keep salvaged counters coherent, Snapshot double-reads until two
// consecutive reads agree (bounded, so a hot writer cannot live-lock
// the reporter); engine-level aggregates are additionally funneled
// through the trace.Registry by the supervisor goroutine alone, which
// is the single synchronized sink for cross-run metrics.
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	prev := s.read()
	for tries := 0; tries < 3; tries++ {
		cur := s.read()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

func (s *Stats) read() Snapshot {
	return Snapshot{
		CostEvals: s.costEvals.Load(),
		DPSubsets: s.dpSubsets.Load(),
		Moves:     s.moves.Load(),
		FastEvals: s.fastEvals.Load(),
		Fallbacks: s.fallbacks.Load(),
	}
}
