package qon

import (
	"math"
	"slices"

	"approxqo/internal/num"
	"approxqo/internal/stats"
)

// DefaultLogGuard is the guard band, in log₂ units, inside which a
// float64 log-domain cost comparison is considered too close to call
// and is re-decided in exact num.Num arithmetic.
//
// Why 1e-6 is safe: CostLog2 accumulates at most O(n²) float64
// additions of log₂ magnitudes. The instance caps (n ≤ 64 everywhere
// this path runs) and the 256-bit source values bound every
// intermediate log₂ magnitude by ~2³¹ (big.Float's exponent range), but
// in practice the hardness reductions stay below ~10⁵, so each rounded
// operation contributes ≲ 10⁵·2⁻⁵³ ≈ 1.2e-11 absolute error and a full
// evaluation stays below ~1e-7 even adversarially. Margins larger than
// the band are therefore decided correctly by float64 alone; anything
// inside the band — including the exact ties the reductions manufacture
// from powers of two — falls back to exact arithmetic. The differential
// tests (logcost_test.go) check this agreement on metamorphic and
// cliquered hardness instances.
const DefaultLogGuard = 1e-6

// CmpLog2 is the cost kernel's one decision rule. It orders two
// positive quantities x and y given their float64 log₂ shadows
// a ≈ log₂ x and b ≈ log₂ y: a margin beyond DefaultLogGuard is decided
// in float64, and a margin inside the band (NaN included, which is how
// two −Inf zero costs arrive) records a Fallback on st (which may be
// nil) and returns exact(), which must return x.Cmp(y) in exact
// arithmetic. Every Tier-1 comparison that feeds a returned plan, in
// the QO_N and the QO_H model alike, goes through it.
func CmpLog2(st *stats.Stats, a, b float64, exact func() int) int {
	d := a - b
	if d > DefaultLogGuard {
		return 1
	}
	if d < -DefaultLogGuard {
		return -1
	}
	st.Fallback()
	return exact()
}

// WOrder is an instance's access-path order: WOrder[v] lists every
// u ≠ v ascending by the exact W[v][u], ties in ascending u (a stable
// sort). The first entry present in a prefix set X attains
// min_{u∈X} W[v][u], the value MinW returns, so every evaluator that
// reads the order picks the access path the exact evaluator does.
type WOrder [][]int32

// NewWOrder sorts every W row of in: O(n² log n) exact comparisons,
// once per optimization run. The order is read-only afterwards, so one
// value may be shared across goroutines.
func NewWOrder(in *Instance) WOrder {
	n := in.N()
	o := make(WOrder, n)
	flat := make([]int32, 0, n*n)
	for v := 0; v < n; v++ {
		start := len(flat)
		for u := 0; u < n; u++ {
			if u != v {
				flat = append(flat, int32(u))
			}
		}
		row, us := in.W[v], flat[start:len(flat):len(flat)]
		slices.SortStableFunc(us, func(a, b int32) int { return row[a].Cmp(row[b]) })
		o[v] = us
	}
	return o
}

// MinMask returns min_{u∈mask} W[v][u] for a prefix set held as a
// machine-word mask (bit u set for u ∈ X): the first entry of o[v]
// whose bit is set, O(1) expected. mask must be non-empty and must not
// contain v.
func (o WOrder) MinMask(in *Instance, v, mask int) num.Num {
	for _, u := range o[v] {
		if mask&(1<<uint(u)) != 0 {
			return in.W[v][u]
		}
	}
	panic("qon: WOrder over empty mask")
}

// LogCoster evaluates C(Z) in the log₂ domain: pure float64, zero
// allocations, no big.Float traffic. It is the Tier-1 fast path the
// greedy tier, the random sampler and local search use to *rank*
// sequences: a returned cost is always exact, and comparisons go
// through CmpLog2 (see Rank), so a margin within DefaultLogGuard falls
// back to exact num.Num.
//
// A LogCoster reuses internal scratch state and is NOT safe for
// concurrent use; give each goroutine its own.
type LogCoster struct {
	in     *Instance
	logT   []float64
	logS   [][]float64
	logW   [][]float64
	wOrder WOrder
	inSet  []bool // scratch membership for one evaluation
}

// NewLogCoster precomputes the log₂ tables and the access-path order
// for in. Cost: O(n²) exact Log2 calls plus NewWOrder, once per
// optimization run.
func NewLogCoster(in *Instance) *LogCoster {
	n := in.N()
	lc := &LogCoster{
		in:     in,
		logT:   make([]float64, n),
		logS:   make([][]float64, n),
		logW:   make([][]float64, n),
		wOrder: NewWOrder(in),
		inSet:  make([]bool, n),
	}
	flat := make([]float64, 2*n*n)
	for v := 0; v < n; v++ {
		lc.logT[v] = in.T[v].Log2()
		lc.logS[v] = flat[2*v*n : (2*v+1)*n]
		lc.logW[v] = flat[(2*v+1)*n : (2*v+2)*n]
		for u := 0; u < n; u++ {
			if u != v {
				lc.logS[v][u] = in.S[v][u].Log2()
				lc.logW[v][u] = in.W[v][u].Log2()
			}
		}
	}
	return lc
}

// LogT returns log₂ t_v.
func (lc *LogCoster) LogT(v int) float64 { return lc.logT[v] }

// LogS returns log₂ s_vu (0 for u = v).
func (lc *LogCoster) LogS(v, u int) float64 { return lc.logS[v][u] }

// LogW returns log₂ W[v][u] (0 for u = v).
func (lc *LogCoster) LogW(v, u int) float64 { return lc.logW[v][u] }

// WOrder returns the access-path order the coster evaluates with.
func (lc *LogCoster) WOrder() WOrder { return lc.wOrder }

// LogAdd returns log₂(2^a + 2^b), the numerically stable way (−Inf
// stands for log₂ 0).
func LogAdd(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log2(1+math.Exp2(b-a))
}

// CostLog2 returns log₂ C(z) (−Inf for the zero cost of a single
// relation). It allocates nothing and records one FastEval.
func (lc *LogCoster) CostLog2(z Sequence) float64 {
	lc.in.stats.FastEval()
	inSet := lc.inSet
	for i := range inSet {
		inSet[i] = false
	}
	total := math.Inf(-1)
	logSize := 0.0
	for i, v := range z {
		if i > 0 {
			var hw float64
			for _, u := range lc.wOrder[v] {
				if inSet[u] {
					hw = lc.logW[v][u]
					break
				}
			}
			total = LogAdd(total, logSize+hw)
		}
		f := lc.logT[v]
		for _, u := range z[:i] {
			f += lc.logS[v][u]
		}
		logSize += f
		inSet[v] = true
	}
	return total
}

// Rank compares C(a) against C(b), returning −1, 0 or +1 exactly as
// the exact comparison would: CmpLog2 over the two CostLog2 values,
// re-deciding a margin inside the band with exact num.Num costs.
func (lc *LogCoster) Rank(a, b Sequence) int {
	return CmpLog2(lc.in.stats, lc.CostLog2(a), lc.CostLog2(b), func() int {
		return lc.in.Cost(a).Cmp(lc.in.Cost(b))
	})
}
