// Package certify is the independent result auditor of the ensemble
// engine: before any optimizer's result is allowed into the merge, the
// auditor re-derives everything the result claims and rejects it on the
// first discrepancy. The engine runs untrusted components — third-party
// optimizers, chaos-wrapped ones, future remote workers — and a single
// understated cost or corrupted permutation winning the merge would
// silently poison the competitive-ratio experiments, so nothing an
// optimizer says about its own plan is taken on faith.
//
// The audit of a QO_N result checks, in order:
//
//  1. the claimed quantities are well-formed (constructed Num values,
//     non-nil sequence),
//  2. the sequence is a bijection over the instance's relations,
//  3. the claimed cost equals an independently recomputed C(Z) under
//     exact num arithmetic (the recomputation walks the S/T/W matrices
//     directly rather than calling the cost model the optimizer used),
//  4. a result flagged Exact is cross-checked against an independently
//     constructed upper bound: a greedy witness sequence whose cost no
//     true optimum can exceed.
//
// ExactBest applies the same bound at report level: every other
// certified run of an ensemble is a witness the exact-flagged winner
// must not exceed.
//
// Failures are classified by three sentinel errors — ErrInvalidPlan,
// ErrCostMismatch, ErrBoundViolated — so callers can build structured
// taxonomies on top (see engine.ErrUncertified).
package certify

import (
	"errors"
	"fmt"

	"approxqo/internal/num"
	"approxqo/internal/qon"
)

// Sentinel errors classifying audit failures. Every error returned by
// QON and QOH wraps exactly one of them.
var (
	// ErrInvalidPlan marks a structurally broken result: a sequence
	// that is not a permutation of the instance's relations, malformed
	// pipeline boundaries, or unconstructed Num values.
	ErrInvalidPlan = errors.New("certify: invalid plan")
	// ErrCostMismatch marks a result whose claimed cost differs from
	// the independently recomputed cost of its own plan.
	ErrCostMismatch = errors.New("certify: claimed cost does not match recomputed cost")
	// ErrBoundViolated marks a result flagged exact whose cost exceeds
	// an independently computed upper bound — the "optimal" claim is
	// refuted by a witness plan the auditor found itself.
	ErrBoundViolated = errors.New("certify: exact-flagged cost violates independent bound")
)

// Certificate records a passed audit: what was claimed, what the
// auditor recomputed, and the bound the exactness claim was checked
// against (unset when the result was not flagged exact).
type Certificate struct {
	Claimed    num.Num `json:"claimed"`
	Recomputed num.Num `json:"recomputed"`
	// Bound is the independent upper bound used for the exactness
	// cross-check; only valid when Exact is true.
	Bound num.Num `json:"bound,omitempty"`
	Exact bool    `json:"exact"`
}

// QON audits one QO_N optimizer result: seq must be a permutation of
// the instance's relations, claimed must equal the independently
// recomputed C(seq), and an exact-flagged claim must not exceed the
// auditor's greedy upper bound. A nil error means the result is
// certified and safe to merge.
func QON(in *qon.Instance, seq []int, claimed num.Num, exact bool) (*Certificate, error) {
	if in == nil {
		return nil, fmt.Errorf("%w: nil instance", ErrInvalidPlan)
	}
	if !claimed.IsValid() {
		return nil, fmt.Errorf("%w: claimed cost is not a constructed value", ErrInvalidPlan)
	}
	if !in.ValidSequence(seq) {
		return nil, fmt.Errorf("%w: sequence %v is not a permutation of 0..%d", ErrInvalidPlan, seq, in.N()-1)
	}
	recomputed := qonCost(in, seq)
	if !recomputed.Equal(claimed) {
		return nil, fmt.Errorf("%w: claimed 2^%.6f, recomputed 2^%.6f",
			ErrCostMismatch, safeLog2(claimed), safeLog2(recomputed))
	}
	cert := &Certificate{Claimed: claimed, Recomputed: recomputed, Exact: exact}
	if exact {
		bound := qonCost(in, greedyWitness(in))
		cert.Bound = bound
		if bound.Less(recomputed) {
			return nil, fmt.Errorf("%w: claims optimality at 2^%.6f but a greedy witness costs 2^%.6f",
				ErrBoundViolated, safeLog2(recomputed), safeLog2(bound))
		}
	}
	return cert, nil
}

// ExactBest audits a report-level exactness claim: a winner flagged
// exact must not cost more than any other certified run of the same
// report, because that run's plan is an independent witness refuting
// the optimality claim (a restricted optimum served as the global one
// fails here). costs are the certified runs' costs; a winner not
// flagged exact passes trivially.
func ExactBest(best num.Num, exact bool, costs []num.Num) error {
	if !exact {
		return nil
	}
	for _, c := range costs {
		if c.IsValid() && c.Less(best) {
			return fmt.Errorf("%w: winner claims optimality at 2^%.6f but a certified run costs 2^%.6f",
				ErrBoundViolated, safeLog2(best), safeLog2(c))
		}
	}
	return nil
}

// qonCost recomputes C(Z) directly from the S/T/W matrices, mirroring
// the canonical evaluation order (ascending prefix vertices, factor
// assembled before the size multiply) so the 256-bit arithmetic is
// bit-identical to an honest cost model's — any difference from a
// claimed cost is a real discrepancy, not rounding.
func qonCost(in *qon.Instance, z []int) num.Num {
	n := in.N()
	inPrefix := make([]bool, n)
	size := num.One()
	total := num.Zero()
	for i, v := range z {
		if i > 0 {
			var w num.Num
			first := true
			for u := 0; u < n; u++ {
				if !inPrefix[u] {
					continue
				}
				if first {
					w, first = in.W[v][u], false
				} else {
					w = w.Min(in.W[v][u])
				}
			}
			total = total.Add(size.Mul(w))
		}
		f := in.T[v]
		for u := 0; u < n; u++ {
			if inPrefix[u] {
				f = f.Mul(in.S[v][u])
			}
		}
		size = size.Mul(f)
		inPrefix[v] = true
	}
	return total
}

// greedyWitness builds the auditor's own upper-bound sequence: start at
// the smallest relation and repeatedly append the vertex with the
// smallest extend factor (smallest index on ties). Any valid sequence
// upper-bounds the optimum; greedy keeps the bound tight enough to
// catch optimizers claiming exactness for visibly bad plans.
func greedyWitness(in *qon.Instance) []int {
	n := in.N()
	seq := make([]int, 0, n)
	used := make([]bool, n)
	first := 0
	for v := 1; v < n; v++ {
		if in.T[v].Less(in.T[first]) {
			first = v
		}
	}
	seq = append(seq, first)
	used[first] = true
	for len(seq) < n {
		best, haveBest := -1, false
		var bestF num.Num
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			f := in.T[v]
			for _, u := range seq {
				f = f.Mul(in.S[v][u])
			}
			if !haveBest || f.Less(bestF) {
				best, bestF, haveBest = v, f, true
			}
		}
		seq = append(seq, best)
		used[best] = true
	}
	return seq
}

// safeLog2 renders a cost for error messages without panicking on zero.
func safeLog2(n num.Num) float64 {
	if !n.IsValid() || n.IsZero() {
		return 0
	}
	return n.Log2()
}
