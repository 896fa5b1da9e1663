package opt

import (
	"approxqo/internal/num"
	"approxqo/internal/qon"
)

// incumbent keeps the cheapest complete sequence offered so far,
// ranked by LogCoster.CostLog2 under qon's CmpLog2 rule. An exact cost
// is computed only for a near-tie, where it is memoized for the
// incumbent, and once for the returned sequence. Ties keep the earlier
// offer, as an exact Less loop does.
type incumbent struct {
	in    *qon.Instance
	lc    *qon.LogCoster
	z     qon.Sequence // nil until the first offer
	e     float64      // CostLog2(z)
	c     num.Num      // C(z), when known
	known bool
}

// offer considers z; the incumbent copies it when adopting.
func (b *incumbent) offer(z qon.Sequence) {
	e := b.lc.CostLog2(z)
	if b.z == nil {
		b.adopt(z, e)
		return
	}
	var c num.Num
	if qon.CmpLog2(b.in.Stats(), e, b.e, func() int {
		c = b.in.Cost(z)
		return c.Cmp(b.cost())
	}) < 0 {
		b.adopt(z, e)
		b.c, b.known = c, c.IsValid()
	}
}

func (b *incumbent) adopt(z qon.Sequence, e float64) {
	b.z = append(b.z[:0], z...)
	b.e, b.known = e, false
}

// cost returns the incumbent's exact cost, memoized.
func (b *incumbent) cost() num.Num {
	if !b.known {
		b.c, b.known = b.in.Cost(b.z), true
	}
	return b.c
}

// result returns the incumbent with its exact cost.
func (b *incumbent) result() *Result {
	return &Result{Sequence: b.z, Cost: b.cost()}
}
