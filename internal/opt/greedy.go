package opt

import (
	"context"
	"fmt"

	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/qon"
)

// GreedyRule selects what a greedy step minimizes.
type GreedyRule int

const (
	// GreedyMinSize appends the vertex minimizing the resulting
	// intermediate size N(Xv) — the classic "minimum intermediate
	// result" heuristic.
	GreedyMinSize GreedyRule = iota
	// GreedyMinCost appends the vertex minimizing the immediate join
	// cost H = N(X)·min W.
	GreedyMinCost
)

// Greedy builds a sequence one vertex at a time, trying every possible
// first relation and keeping the best complete sequence. Vertices
// connected to the prefix are preferred over cartesian products.
// Anytime: cancellation between start vertices returns the best
// complete sequence built so far.
//
// Every comparison runs on the Tier-1 kernel (qon.CmpLog2): a
// step compares the candidates' log₂ keys, kept incrementally at O(1)
// per candidate, and the choice among the n starts compares
// LogCoster.CostLog2. Only a margin inside the guard band pays for
// exact arithmetic, replayed in the rounding order of the exact
// comparison it stands for, so the returned sequence and cost are the
// ones an all-exact greedy returns.
type Greedy struct {
	rule GreedyRule
	cfg  options
}

// NewGreedy returns a greedy optimizer with the given step rule.
// Relevant options: WithStats.
func NewGreedy(rule GreedyRule, opts ...Option) Greedy {
	return Greedy{rule: rule, cfg: buildOptions(opts)}
}

// Name implements Optimizer.
func (g Greedy) Name() string {
	if g.rule == GreedyMinSize {
		return "greedy-min-size"
	}
	return "greedy-min-cost"
}

// Optimize implements Optimizer.
func (g Greedy) Optimize(ctx context.Context, in *qon.Instance) (*Result, error) {
	n := in.N()
	if n == 0 {
		return nil, fmt.Errorf("opt: empty instance")
	}
	in = g.cfg.instrument(in)
	r := newGreedyRun(in, g.rule)
	defer r.release()
	best := incumbent{in: in, lc: r.lc}
	for first := 0; first < n; first++ {
		if best.z != nil && cancelled(ctx) {
			break
		}
		best.offer(r.buildFrom(first))
	}
	return best.result(), nil
}

// greedyRun is one Optimize call's state, reused across the n starts.
//
// A step compares candidates by key[v]: under min-size the log₂ of v's
// extend factor t_v·∏_{u∈X} s_vu, under min-cost the log₂ of
// min_{u∈X} W[v][u]. Both keys omit the factor N(X) every candidate
// shares, and both are kept incrementally as the prefix X grows. A
// margin beyond the guard band on the keys decides the exact keys
// N(X)·factor (or N(X)·min W) the same way, because N(X) is positive and
// the 256-bit rounding of a product moves it by far less than the band.
type greedyRun struct {
	in   *qon.Instance
	lc   *qon.LogCoster
	rule GreedyRule

	z      qon.Sequence
	x      *graph.Bitset // members of z
	conn   []bool        // conn[v]: v has a query-graph edge into z
	key    []float64     // log₂ step key, see above
	minU   []int32       // min-cost: the inner attaining min_{u∈z} W[v][u]
	wPos   []int32       // min-cost: wPos[v·n+u] = u's place in WOrder[v]
	sized  int           // size holds N(z[:sized]) exactly
	xSized *graph.Bitset // members of z[:sized]

	size, factor, cand, pick *num.Scratch
}

func newGreedyRun(in *qon.Instance, rule GreedyRule) *greedyRun {
	n := in.N()
	r := &greedyRun{
		in:     in,
		lc:     qon.NewLogCoster(in),
		rule:   rule,
		z:      make(qon.Sequence, 0, n),
		x:      graph.NewBitset(n),
		conn:   make([]bool, n),
		key:    make([]float64, n),
		xSized: graph.NewBitset(n),
		size:   num.NewScratch(),
		factor: num.NewScratch(),
		cand:   num.NewScratch(),
		pick:   num.NewScratch(),
	}
	if rule == GreedyMinCost {
		r.minU = make([]int32, n)
		r.wPos = make([]int32, n*n)
		for v, us := range r.lc.WOrder() {
			for i, u := range us {
				r.wPos[v*n+int(u)] = int32(i)
			}
		}
	}
	return r
}

func (r *greedyRun) release() {
	r.size.Release()
	r.factor.Release()
	r.cand.Release()
	r.pick.Release()
}

// buildFrom returns the greedy sequence starting at first. The slice
// is reused by the next call.
func (r *greedyRun) buildFrom(first int) qon.Sequence {
	n, st := r.in.N(), r.in.Stats()
	r.z = r.z[:0]
	r.x.Clear()
	r.xSized.Clear()
	r.sized = 0
	for v := 0; v < n; v++ {
		r.conn[v] = false
		r.key[v] = r.lc.LogT(v)
		if r.rule == GreedyMinCost {
			r.minU[v] = -1
		}
	}
	r.place(first)
	for len(r.z) < n {
		pick, pickConnected, pickExact := -1, false, false
		for v := 0; v < n; v++ {
			if r.x.Has(v) {
				continue
			}
			connected := r.conn[v]
			// Prefer connected extensions over cartesian products.
			if pick >= 0 && pickConnected && !connected {
				continue
			}
			if pick < 0 || (connected && !pickConnected) {
				pick, pickConnected, pickExact = v, connected, false
				continue
			}
			candExact := false
			c := qon.CmpLog2(st, r.key[v], r.key[pick], func() int {
				if !pickExact {
					r.exactKey(r.pick, pick)
					pickExact = true
				}
				r.exactKey(r.cand, v)
				candExact = true
				return r.cand.CmpScratch(r.pick)
			})
			if c < 0 {
				pick, pickExact = v, candExact
				if candExact {
					r.cand, r.pick = r.pick, r.cand
				}
			}
		}
		r.place(pick)
	}
	return r.z
}

// place appends v to the prefix and updates every outside vertex's
// connectivity and key.
func (r *greedyRun) place(v int) {
	r.z = append(r.z, v)
	r.x.Add(v)
	n := r.in.N()
	for u := 0; u < n; u++ {
		if r.x.Has(u) {
			continue
		}
		if r.in.Q.HasEdge(u, v) {
			r.conn[u] = true
		}
		if r.rule == GreedyMinSize {
			r.key[u] += r.lc.LogS(u, v)
		} else if m := r.minU[u]; m < 0 || r.wPos[u*n+v] < r.wPos[u*n+int(m)] {
			r.minU[u] = int32(v)
			r.key[u] = r.lc.LogW(u, v)
		}
	}
}

// exactKey sets dst to v's exact step key against the current prefix,
// by the operations an all-exact step performs: N(X) (catching the
// exact size up along the prefix, ascending-u extend factors, one
// rounding per product) times v's extend factor, or times
// min_{u∈X} W[v][u].
func (r *greedyRun) exactKey(dst *num.Scratch, v int) {
	in := r.in
	if r.sized == 0 {
		r.size.SetInt64(1)
	}
	for ; r.sized < len(r.z); r.sized++ {
		u := r.z[r.sized]
		in.ExtendInto(r.factor, u, r.xSized)
		r.size.MulScratch(r.factor)
		r.xSized.Add(u)
	}
	dst.SetScratch(r.size)
	if r.rule == GreedyMinSize {
		in.ExtendInto(r.factor, v, r.x)
		dst.MulScratch(r.factor)
	} else {
		dst.Mul(in.W[v][r.minU[v]])
	}
}
