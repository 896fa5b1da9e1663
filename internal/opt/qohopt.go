package opt

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/qoh"
	"approxqo/internal/qon"
)

// QO_H plan search. A QO_H plan is a join sequence plus a pipeline
// decomposition plus memory allocations; the inner two layers are
// solved exactly by qoh.Instance.BestDecomposition, so the optimizers
// here search the sequence space only. Like their QO_N counterparts,
// they are anytime: cancellation returns the best feasible plan found
// so far (or an error if none exists yet).

// DefaultQOHAnnealingIters is the default iteration budget for QO_H
// annealing (each iteration costs an O(n³) decomposition DP).
const DefaultQOHAnnealingIters = 500

// instrumentQOH mirrors options.instrument for QO_H instances.
func (o options) instrumentQOH(in *qoh.Instance) *qoh.Instance {
	if o.stats != nil && in.Stats() == nil {
		return in.WithStats(o.stats)
	}
	return in
}

// QOHGreedy builds a sequence greedily — from each feasible start,
// repeatedly append the relation minimizing the next intermediate size
// — and returns the best optimally-decomposed plan among them.
// Relevant options: WithStats.
func QOHGreedy(ctx context.Context, in *qoh.Instance, opts ...Option) (*qoh.Plan, error) {
	n := in.N()
	if n < 2 {
		return nil, fmt.Errorf("opt: QO_H greedy needs at least two relations")
	}
	in = buildOptions(opts).instrumentQOH(in)
	ls := qoh.NewLogSizer(in)
	var best *qoh.Plan
	for first := 0; first < n; first++ {
		if best != nil && cancelled(ctx) {
			break
		}
		if !in.FeasibleStart(first) {
			continue
		}
		z := greedySizeSequence(in, ls, first)
		plan, err := in.BestDecomposition(z)
		if err != nil {
			continue
		}
		if best == nil || plan.Cost.Less(best.Cost) {
			best = plan
		}
	}
	if best == nil {
		return nil, fmt.Errorf("opt: no feasible QO_H plan found")
	}
	return best, nil
}

// qohExtendInto writes N(X ∪ {v}) into s using the exact operation order
// qoh.Sizes performs (multiply by t_v, then each s_vu in ascending u), so
// the chained sizes below stay bit-identical to a from-scratch Sizes
// walk of the finished sequence.
func qohExtendInto(s *num.Scratch, in *qoh.Instance, size num.Num, v int, x *graph.Bitset) {
	s.Set(size)
	s.Mul(in.T[v])
	x.ForEach(func(u int) { s.Mul(in.S[v][u]) })
}

// greedySizeSequence ranks candidate extensions by their float64 log₂
// next size (qoh.LogSizer) under qon.CmpLog2, which re-decides a
// near-tie on the exact next sizes; strict comparison keeps the earlier
// candidate on an exact tie. The chosen sequence is the one an all-exact
// greedy picks, at one exact size chain per step instead of per
// candidate.
func greedySizeSequence(in *qoh.Instance, ls *qoh.LogSizer, first int) []int {
	n := in.N()
	st := in.Stats()
	z := make([]int, 0, n)
	z = append(z, first)
	used := graph.NewBitset(n)
	used.Add(first)
	size := in.T[first]
	logSize := ls.LogT(first)
	cand := num.NewScratch()
	pickCand := num.NewScratch()
	defer cand.Release()
	defer pickCand.Release()
	for len(z) < n {
		pick := -1
		var pickLog float64
		pickExact := false // pickCand holds pick's exact next size
		for v := 0; v < n; v++ {
			if used.Has(v) {
				continue
			}
			st.FastEval()
			lnext := ls.ExtendLog2(logSize, v, used)
			if pick < 0 {
				pick, pickLog = v, lnext
				continue
			}
			candExact := false
			if qon.CmpLog2(st, lnext, pickLog, func() int {
				if !pickExact {
					qohExtendInto(pickCand, in, size, pick, used)
					pickExact = true
				}
				qohExtendInto(cand, in, size, v, used)
				candExact = true
				return cand.CmpScratch(pickCand)
			}) < 0 {
				pick, pickLog, pickExact = v, lnext, candExact
				if candExact {
					cand, pickCand = pickCand, cand
				}
			}
		}
		qohExtendInto(cand, in, size, pick, used)
		size = cand.Num()
		logSize = cand.Log2() // re-anchor the shadow from the exact value
		z = append(z, pick)
		used.Add(pick)
	}
	return z
}

// QOHAnnealing runs simulated annealing over join sequences, solving
// the decomposition and memory layers exactly per candidate. Relevant
// options: WithSeed, WithIterations (default DefaultQOHAnnealingIters),
// WithStats.
func QOHAnnealing(ctx context.Context, in *qoh.Instance, opts ...Option) (*qoh.Plan, error) {
	o := buildOptions(opts)
	iters := o.iters
	if iters <= 0 {
		iters = DefaultQOHAnnealingIters
	}
	n := in.N()
	if n < 2 {
		return nil, fmt.Errorf("opt: QO_H annealing needs at least two relations")
	}
	in = o.instrumentQOH(in)
	// Seed with the greedy plan; fall back to any feasible start.
	cur, err := QOHGreedy(ctx, in)
	if err != nil {
		return nil, err
	}
	st := in.Stats()
	rng := rand.New(rand.NewSource(o.seed))
	curZ := append([]int(nil), cur.Z...)
	curE := cur.Cost.Log2()
	best := cur
	temp := math.Max(1, curE/8)
	cooling := math.Pow(0.01/temp, 1/float64(iters))
	for it := 0; it < iters && !cancelled(ctx); it++ {
		nextZ := append([]int(nil), curZ...)
		i, j := rng.Intn(n), rng.Intn(n)
		nextZ[i], nextZ[j] = nextZ[j], nextZ[i]
		st.Move()
		// Feasibility pre-screen, exact: a decomposition exists iff the
		// all-singletons one does (singleton pipelines minimize each
		// join's mandatory memory), and that in turn holds iff every
		// non-first relation's hjmin fits M — which is FeasibleStart of
		// the leading relation. Screening here skips the O(n³)
		// decomposition DP for neighbours it would only reject.
		if !in.FeasibleStart(nextZ[0]) {
			temp *= cooling
			continue // infeasible neighbour
		}
		plan, err := in.BestDecomposition(nextZ)
		if err != nil {
			temp *= cooling
			continue // infeasible neighbour
		}
		e := plan.Cost.Log2()
		if e <= curE || rng.Float64() < math.Exp((curE-e)/temp) {
			curZ, curE = nextZ, e
			if plan.Cost.Less(best.Cost) {
				best = plan
			}
		}
		temp *= cooling
	}
	return best, nil
}

// QOHBest runs the QO_H ensemble: exhaustive when tiny, otherwise
// greedy plus annealing. Relevant options: WithSeed, WithIterations,
// WithStats.
func QOHBest(ctx context.Context, in *qoh.Instance, opts ...Option) (*qoh.Plan, error) {
	in = buildOptions(opts).instrumentQOH(in)
	if in.N() <= qoh.MaxExhaustiveN {
		return in.ExactBest()
	}
	best, err := QOHGreedy(ctx, in)
	if err != nil {
		return nil, err
	}
	if sa, err := QOHAnnealing(ctx, in, opts...); err == nil && sa.Cost.Less(best.Cost) {
		best = sa
	}
	return best, nil
}
