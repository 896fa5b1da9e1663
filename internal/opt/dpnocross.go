package opt

import (
	"context"
	"fmt"
	"math/bits"

	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/qon"
)

// DPNoCross is the exact subset DP restricted to sequences without
// cartesian products: every join after the first must add a relation
// adjacent (in the query graph) to the already-joined set. This is the
// search space of Cluet–Moerkotte ([2] in the paper); §4 remarks that
// the Theorem 9 gap is unchanged under this restriction — the A2
// ablation experiment verifies exactly that, using this optimizer.
//
// On disconnected query graphs no such sequence exists and Optimize
// returns an error. Like DP, cancellation mid-table returns the
// context's error.
type DPNoCross struct {
	// MaxN caps the instance size; zero means DefaultMaxDPN.
	MaxN int

	cfg options
}

// NewDPNoCross returns the cartesian-product-free subset DP. Relevant
// options: WithMaxRelations, WithStats.
func NewDPNoCross(opts ...Option) DPNoCross {
	o := buildOptions(opts)
	return DPNoCross{MaxN: o.maxN, cfg: o}
}

// Name implements Optimizer.
func (DPNoCross) Name() string { return "subset-dp-no-cross" }

// Optimize implements Optimizer. The returned result is optimal only
// *within the cross-product-free space*; the global optimum may use a
// cartesian product and be strictly cheaper, so Result.Exact (which
// certifies global optimality) stays false. A restricted optimum must
// never end an ensemble early or win an exact tie.
func (d DPNoCross) Optimize(ctx context.Context, in *qon.Instance) (*Result, error) {
	n := in.N()
	max := d.MaxN
	if max == 0 {
		max = DefaultMaxDPN
	}
	if n > max {
		return nil, fmt.Errorf("opt: no-cross DP capped at n ≤ %d, got %d", max, n)
	}
	if n == 0 {
		return nil, fmt.Errorf("opt: empty instance")
	}
	in = d.cfg.instrument(in)
	if n == 1 {
		return &Result{Sequence: qon.Sequence{0}, Cost: num.Zero(), Exact: true}, nil
	}

	total := 1 << n
	// adjacency[v] = bitmask of v's neighbours.
	adjacency := make([]int, n)
	for v := 0; v < n; v++ {
		in.Q.Neighbors(v).ForEach(func(u int) { adjacency[v] |= 1 << u })
	}

	size := make([]num.Num, total)
	size[0] = num.One()
	scratch := graph.NewBitset(n)
	toBitset := func(mask int) *graph.Bitset {
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				scratch.Add(v)
			} else {
				scratch.Remove(v)
			}
		}
		return scratch
	}
	// Scratch accumulators keep the table construction allocation-free
	// (bit-identical to the immutable ops — see dp.go).
	acc := num.NewScratch()
	factor := num.NewScratch()
	defer acc.Release()
	defer factor.Release()
	for mask := 1; mask < total; mask++ {
		low := bits.TrailingZeros(uint(mask))
		rest := mask &^ (1 << low)
		in.ExtendInto(factor, low, toBitset(rest))
		acc.Set(size[rest]).MulScratch(factor)
		size[mask] = acc.Num()
	}

	st := in.Stats()
	minw := newMinWIndex(in)
	cand := num.NewScratch()
	bestAcc := num.NewScratch()
	defer cand.Release()
	defer bestAcc.Release()
	dp := make([]num.Num, total)
	reachable := make([]bool, total)
	parent := make([]int8, total)
	for v := 0; v < n; v++ {
		m := 1 << v
		dp[m] = num.Zero()
		reachable[m] = true
		parent[m] = int8(v)
	}
	for mask := 1; mask < total; mask++ {
		if mask%ctxCheckMaskStride == 0 && cancelled(ctx) {
			return nil, ctx.Err()
		}
		if bits.OnesCount(uint(mask)) < 2 {
			continue
		}
		st.DPSubset()
		candidates := int64(0)
		bestV := -1
		for v := 0; v < n; v++ {
			if mask&(1<<v) == 0 {
				continue
			}
			rest := mask &^ (1 << v)
			if !reachable[rest] || adjacency[v]&rest == 0 {
				continue // unreachable prefix, or v would be a cartesian product
			}
			cand.Set(dp[rest]).MulAdd(size[rest], minw.min(in, v, rest))
			candidates++
			if bestV < 0 || cand.CmpScratch(bestAcc) < 0 {
				cand, bestAcc = bestAcc, cand
				bestV = v
			}
		}
		st.AddCostEvals(candidates)
		if bestV >= 0 {
			dp[mask], parent[mask], reachable[mask] = bestAcc.Num(), int8(bestV), true
		}
	}
	if !reachable[total-1] {
		return nil, fmt.Errorf("opt: no cartesian-product-free sequence (disconnected query graph)")
	}

	seq := make(qon.Sequence, 0, n)
	for mask := total - 1; mask != 0; {
		v := int(parent[mask])
		seq = append(seq, v)
		mask &^= 1 << v
	}
	for l, r := 0, len(seq)-1; l < r; l, r = l+1, r-1 {
		seq[l], seq[r] = seq[r], seq[l]
	}
	// Canonical-order recomputation, for the same reason as DP: the
	// table's rounding sequence differs from Evaluate's on non-dyadic
	// workloads, and certification demands bit-equality.
	return &Result{Sequence: seq, Cost: in.Cost(seq)}, nil
}
