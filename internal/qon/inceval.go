package qon

import (
	"fmt"
	"math"

	"approxqo/internal/graph"
	"approxqo/internal/num"
)

// incTables is one set of per-position prefix tables: exact
// intermediate sizes and cost prefix sums plus their float64 log₂
// shadows.
type incTables struct {
	size    []num.Num // size[i] = N(z[0..i]), exact
	csum    []num.Num // csum[i] = Σ_{k≤i} H_k, exact (csum[0] = 0)
	logSize []float64
	logCsum []float64 // −Inf while the prefix cost is still zero
}

func newIncTables(n int) incTables {
	return incTables{
		size:    make([]num.Num, n),
		csum:    make([]num.Num, n),
		logSize: make([]float64, n),
		logCsum: make([]float64, n),
	}
}

// IncEval is the Tier-2 incremental move evaluator for local search.
// It maintains per-position prefix tables for one current sequence —
// exact intermediate sizes N(X), exact cost prefix sums Σ H, and their
// float64 log₂ shadows — so a candidate move that leaves positions
// [0, from) untouched re-derives only the suffix: O(n·(n−from)) work
// instead of a full O(n²) evaluation.
//
// The exact tables replay the canonical evaluation order of
// qon.Evaluate (extend factor over ascending u, rounded before the size
// multiply), so every cost this evaluator confirms is bit-identical to
// a from-scratch Evaluate of the same sequence — the property the
// certification audit depends on, asserted by TestIncEvalBitIdentical.
//
// MoveExact walks land in a shadow table set; an Apply of the same
// candidate commits the shadow by pointer copy instead of re-walking,
// so a guard-band fallback that then accepts the move costs one exact
// suffix evaluation, not two.
//
// Caller contract: every candidate passed to MoveLog2 / MoveExact /
// Apply must agree with the current sequence on [0, from). IncEval is
// not safe for concurrent use.
type IncEval struct {
	in *Instance
	lc *LogCoster
	n  int

	z   Sequence // current sequence (private copy)
	tab incTables

	shadow     incTables
	shadowSeq  Sequence
	shadowFrom int // anchor of the last MoveExact walk; −1 when stale

	x     *graph.Bitset // scratch prefix set for exact walks
	inSet []bool        // scratch membership for fast walks
}

// NewIncEval builds the evaluator anchored at sequence z (one exact
// evaluation). z is copied.
func NewIncEval(in *Instance, z Sequence) *IncEval {
	if !in.ValidSequence(z) {
		panic(fmt.Sprintf("qon: invalid join sequence %v", z))
	}
	n := in.N()
	e := &IncEval{
		in:         in,
		lc:         NewLogCoster(in),
		n:          n,
		z:          make(Sequence, n),
		tab:        newIncTables(n),
		shadow:     newIncTables(n),
		shadowSeq:  make(Sequence, n),
		shadowFrom: -1,
		x:          graph.NewBitset(n),
		inSet:      make([]bool, n),
	}
	e.walk(z, 0, &e.tab)
	copy(e.z, z)
	return e
}

// Reset re-anchors the evaluator at a brand-new sequence (one exact
// evaluation), reusing the tables — cheaper than NewIncEval for
// restart-style optimizers because the log₂ instance tables survive.
func (e *IncEval) Reset(z Sequence) {
	if !e.in.ValidSequence(z) {
		panic(fmt.Sprintf("qon: invalid join sequence %v", z))
	}
	e.walk(z, 0, &e.tab)
	copy(e.z, z)
	e.shadowFrom = -1
}

// Sequence returns the current sequence (the caller must not mutate it).
func (e *IncEval) Sequence() Sequence { return e.z }

// Cost returns the exact cost of the current sequence.
func (e *IncEval) Cost() num.Num { return e.tab.csum[e.n-1] }

// CostLog2 returns log₂ of the current cost, re-anchored from the
// exact tables (−Inf for the zero cost of a single relation).
func (e *IncEval) CostLog2() float64 { return e.tab.logCsum[e.n-1] }

// MoveLog2 returns log₂ C(next) via the float64 fast path, reusing the
// cached prefix through position from−1. Zero allocations; records one
// FastEval.
func (e *IncEval) MoveLog2(next Sequence, from int) float64 {
	e.in.stats.FastEval()
	lc := e.lc
	inSet := e.inSet
	for i := range inSet {
		inSet[i] = false
	}
	total := math.Inf(-1)
	logSize := 0.0
	if from > 0 {
		total = e.tab.logCsum[from-1]
		logSize = e.tab.logSize[from-1]
		for _, u := range next[:from] {
			inSet[u] = true
		}
	}
	for i := from; i < e.n; i++ {
		v := next[i]
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
		for _, u := range next[:i] {
			f += lc.logS[v][u]
		}
		logSize += f
		inSet[v] = true
	}
	return total
}

// MoveExact returns the exact cost of next without adopting it,
// resuming from the cached exact prefix at from. The result is
// bit-identical to in.Cost(next). The walk is remembered, so an
// immediately following Apply of the same candidate is free.
func (e *IncEval) MoveExact(next Sequence, from int) num.Num {
	c := e.walk(next, from, &e.shadow)
	copy(e.shadowSeq, next)
	e.shadowFrom = from
	return c
}

// Apply adopts next as the current sequence, re-deriving the exact and
// log tables for positions ≥ from (or committing the memoized
// MoveExact walk when it covered exactly this candidate). The new
// Cost() is bit-identical to in.Cost(next).
func (e *IncEval) Apply(next Sequence, from int) {
	if e.shadowFrom == from && seqSuffixEqual(e.shadowSeq, next, from) {
		t, s := &e.tab, &e.shadow
		for i := from; i < e.n; i++ {
			t.size[i] = s.size[i]
			t.csum[i] = s.csum[i]
			t.logSize[i] = s.logSize[i]
			t.logCsum[i] = s.logCsum[i]
		}
	} else {
		e.walk(next, from, &e.tab)
	}
	copy(e.z[from:], next[from:])
	e.shadowFrom = -1
}

func seqSuffixEqual(a, b Sequence, from int) bool {
	for i := from; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// walk evaluates positions [from, n) of next in exact scratch
// arithmetic, resuming from the primary tables at from−1, writing the
// results into t and returning the total cost. The operation sequence
// is exactly the one Evaluate performs (the minimum access path comes
// from the stable sorted-W order, which selects the same value MinW
// does), so the result is bit-identical to a full evaluation.
func (e *IncEval) walk(next Sequence, from int, t *incTables) num.Num {
	e.in.stats.CostEval()
	size := num.NewScratch()
	factor := num.NewScratch()
	join := num.NewScratch()
	total := num.NewScratch()
	defer size.Release()
	defer factor.Release()
	defer join.Release()
	defer total.Release()

	x := e.x
	x.Clear()
	size.SetInt64(1)
	if from > 0 {
		size.Set(e.tab.size[from-1])
		total.Set(e.tab.csum[from-1])
		for _, u := range next[:from] {
			x.Add(u)
		}
	}
	for i := from; i < e.n; i++ {
		v := next[i]
		if i > 0 {
			var w num.Num
			for _, u := range e.lc.wOrder[v] {
				if x.Has(int(u)) {
					w = e.in.W[v][u]
					break
				}
			}
			join.SetScratch(size)
			join.Mul(w)
			total.AddScratch(join)
		}
		e.in.ExtendInto(factor, v, x)
		size.MulScratch(factor)
		x.Add(v)
		t.size[i] = size.Num()
		t.csum[i] = total.Num()
		t.logSize[i] = size.Log2()
		if total.Sign() == 0 {
			t.logCsum[i] = math.Inf(-1)
		} else {
			t.logCsum[i] = total.Log2()
		}
	}
	return t.csum[e.n-1]
}
