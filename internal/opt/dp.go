package opt

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/qon"
)

// DefaultMaxDPN caps the subset DP (2^n states).
const DefaultMaxDPN = 20

// ctxCheckMaskStride is how many DP masks the subset DPs expand between
// context polls: frequent enough that cancellation lands within
// milliseconds, rare enough that the poll is free next to the big.Float
// arithmetic per mask.
const ctxCheckMaskStride = 1024

// DP is the exact subset dynamic program for left-deep QO_N plans.
//
// Correctness rests on a structural fact of the paper's cost model: the
// intermediate size N(X) and the access cost min_{u∈X} W[v][u] depend
// only on the *set* X, not on the order it was joined in. Hence the
// cheapest way to have joined exactly the set X is
//
//	dp[X] = min over v∈X, |X|≥2 of dp[X\{v}] + N(X\{v})·min_{u} W[v][u]
//
// — a Held–Karp-style recurrence over 2^n subsets, exact in
// O(2^n·n²) operations. This is what certifies optima for the
// competitive-ratio experiments.
//
// Masks with k set bits depend only on masks with k−1 set bits, so the
// table fills in popcount layers. One implementation serves three
// optimizers:
//
//   - subset-dp (NewDP, and the zero value): one worker.
//   - subset-dp-parallel (NewDPParallel): each layer sharded across
//     WithWorkers goroutines (default GOMAXPROCS). Every table entry is
//     computed by the same operations in the same order, so results and
//     stats are bit-identical to the serial run.
//   - subset-dp-no-cross (NewDPNoCross): the recurrence restricted to
//     sequences without cartesian products — every join after the first
//     adds a relation adjacent (in the query graph) to the joined
//     prefix, itself reachable that way. This is the search space of
//     Cluet–Moerkotte ([2] in the paper); §4 remarks that the Theorem 9
//     gap is unchanged under this restriction, and the A2 ablation
//     experiment verifies exactly that with this optimizer. Its result
//     is optimal only within that space — the global optimum may use a
//     cartesian product and be strictly cheaper — so Result.Exact
//     (global optimality) stays false, and a restricted optimum never
//     ends an ensemble early or wins an exact tie. On a disconnected
//     query graph no such sequence exists and Optimize errors.
//
// The DP has no complete plan until the final subset, so on context
// cancellation Optimize returns the context's error rather than a
// partial result.
type DP struct {
	// MaxN caps the instance size; zero means DefaultMaxDPN
	// (DefaultMaxDPN + 2 for the parallel DP, which exists to go a
	// little further).
	MaxN int

	cfg     options
	variant dpVariant
}

type dpVariant uint8

const (
	dpSerial dpVariant = iota
	dpParallel
	dpNoCross
)

// NewDP returns the subset-DP optimizer. Relevant options:
// WithMaxRelations, WithStats.
func NewDP(opts ...Option) DP { return newDP(dpSerial, opts) }

// NewDPParallel returns the subset DP with each popcount layer sharded
// across cores. Relevant options: WithMaxRelations, WithWorkers,
// WithStats.
func NewDPParallel(opts ...Option) DP { return newDP(dpParallel, opts) }

// NewDPNoCross returns the cartesian-product-free subset DP. Relevant
// options: WithMaxRelations, WithStats.
func NewDPNoCross(opts ...Option) DP { return newDP(dpNoCross, opts) }

func newDP(v dpVariant, opts []Option) DP {
	o := buildOptions(opts)
	return DP{MaxN: o.maxN, cfg: o, variant: v}
}

// Name implements Optimizer.
func (d DP) Name() string {
	switch d.variant {
	case dpParallel:
		return "subset-dp-parallel"
	case dpNoCross:
		return "subset-dp-no-cross"
	}
	return "subset-dp"
}

// dpScratch is one worker's private mutable state for a layer sweep: a
// bitset (ExtendInto takes bitsets) plus pooled accumulators.
type dpScratch struct {
	x                       *graph.Bitset
	acc, factor, cand, best *num.Scratch
}

// Optimize implements Optimizer.
func (d DP) Optimize(ctx context.Context, in *qon.Instance) (*Result, error) {
	n := in.N()
	max := d.MaxN
	if max == 0 {
		max = DefaultMaxDPN
		if d.variant == dpParallel {
			max += 2
		}
	}
	if n > max {
		return nil, fmt.Errorf("opt: %s capped at n ≤ %d, got %d", d.Name(), max, n)
	}
	if n == 0 {
		return nil, fmt.Errorf("opt: empty instance")
	}
	in = d.cfg.instrument(in)
	if n == 1 {
		return &Result{Sequence: qon.Sequence{0}, Cost: num.Zero(), Exact: true}, nil
	}
	workers := 1
	if d.variant == dpParallel {
		if workers = d.cfg.workers; workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
	}

	// joinable[v] is the set of relations a prefix must meet for v to
	// join it: any relation, or under no-cross only v's neighbours.
	joinable := make([]int, n)
	for v := range joinable {
		joinable[v] = -1
		if d.variant == dpNoCross {
			joinable[v] = 0
			in.Q.Neighbors(v).ForEach(func(u int) { joinable[v] |= 1 << u })
		}
	}

	total := 1 << n
	// size[mask] = N(mask); dp[mask] = best cost to join exactly mask;
	// parent[mask] = last vertex joined in the best plan for mask, or −1
	// when no admissible sequence joins exactly mask (no-cross only).
	size := make([]num.Num, total)
	dp := make([]num.Num, total)
	parent := make([]int8, total)
	size[0] = num.One()

	// All per-candidate arithmetic runs on pooled scratch accumulators,
	// each owned by exactly one worker per layer; only the table entries
	// materialize immutable Nums. The rounding sequence matches the
	// immutable operations exactly, so the table (and the certified
	// optimum) is bit-identical either way.
	scratches := make([]dpScratch, workers)
	for i := range scratches {
		scratches[i] = dpScratch{
			x:      graph.NewBitset(n),
			acc:    num.NewScratch(),
			factor: num.NewScratch(),
			cand:   num.NewScratch(),
			best:   num.NewScratch(),
		}
	}
	defer func() {
		for _, ws := range scratches {
			ws.acc.Release()
			ws.factor.Release()
			ws.cand.Release()
			ws.best.Release()
		}
	}()

	// step fills mask's table entries from the previous layer's: first
	// N(mask) = N(mask\{low}) · factor(low, mask\{low}), then the
	// recurrence's argmin over the admissible last joins.
	st := in.Stats()
	order := qon.NewWOrder(in)
	step := func(ws *dpScratch, mask int) {
		low := bits.TrailingZeros(uint(mask))
		rest := mask &^ (1 << low)
		for v := 0; v < n; v++ {
			if rest&(1<<v) != 0 {
				ws.x.Add(v)
			} else {
				ws.x.Remove(v)
			}
		}
		in.ExtendInto(ws.factor, low, ws.x)
		ws.acc.Set(size[rest]).MulScratch(ws.factor)
		size[mask] = ws.acc.Num()
		if rest == 0 {
			dp[mask], parent[mask] = num.Zero(), int8(low)
			return
		}

		st.DPSubset()
		candidates := int64(0)
		cand, best := ws.cand, ws.best
		bestV := -1
		for v := 0; v < n; v++ {
			rest := mask &^ (1 << v)
			if rest == mask || parent[rest] < 0 || joinable[v]&rest == 0 {
				continue // v not in mask, unreachable prefix, or a cartesian product
			}
			cand.Set(dp[rest]).MulAdd(size[rest], order.MinMask(in, v, rest))
			candidates++
			if bestV < 0 || cand.CmpScratch(best) < 0 {
				cand, best = best, cand
				bestV = v
			}
		}
		st.AddCostEvals(candidates)
		if parent[mask] = int8(bestV); bestV >= 0 {
			dp[mask] = best.Num()
		}
	}
	// scan steps through the masks with pc set bits whose positions, in
	// increasing mask order, fall in [lo, hi).
	scan := func(ws *dpScratch, pc, lo, hi int) {
		mask := 1<<pc - 1
		for i := 0; i < hi; i, mask = i+1, nextCombination(mask) {
			if i < lo {
				continue
			}
			if (i-lo)%ctxCheckMaskStride == 0 && cancelled(ctx) {
				return
			}
			step(ws, mask)
		}
	}

	// Each layer of C(n, pc) masks is split into contiguous chunks, one
	// per worker.
	for pc, layer := 1, 1; pc <= n; pc++ {
		layer = layer * (n - pc + 1) / pc
		if cancelled(ctx) {
			return nil, ctx.Err()
		}
		if workers == 1 {
			scan(&scratches[0], pc, 0, layer)
			continue
		}
		var wg sync.WaitGroup
		chunk := (layer + workers - 1) / workers
		for w, lo := 0, 0; lo < layer; w, lo = w+1, lo+chunk {
			wg.Add(1)
			go func(ws *dpScratch, lo int) {
				defer wg.Done()
				scan(ws, pc, lo, min(lo+chunk, layer))
			}(&scratches[w], lo)
		}
		wg.Wait()
	}
	if cancelled(ctx) {
		return nil, ctx.Err()
	}
	if parent[total-1] < 0 {
		return nil, fmt.Errorf("opt: no cartesian-product-free sequence (disconnected query graph)")
	}

	// Reconstruct the sequence.
	seq := make(qon.Sequence, 0, n)
	for mask := total - 1; mask != 0; {
		v := int(parent[mask])
		seq = append(seq, v)
		mask &^= 1 << v
	}
	for l, r := 0, len(seq)-1; l < r; l, r = l+1, r-1 {
		seq[l], seq[r] = seq[r], seq[l]
	}
	// Report the winning sequence's cost re-derived along the canonical
	// evaluation order rather than the DP table's value: the table
	// accumulates N(mask) by peeling the lowest set bit, which rounds
	// differently in the last ulps than Evaluate's sequence-order walk
	// on non-dyadic workloads — and certification demands bit-equality
	// with the canonical recomputation.
	return &Result{Sequence: seq, Cost: in.Cost(seq), Exact: d.variant != dpNoCross}, nil
}

// nextCombination returns the next larger integer with the same number
// of set bits as x > 0 (Gosper's hack).
func nextCombination(x int) int {
	c := x & -x
	r := x + c
	return ((r^x)>>2)/c | r
}
