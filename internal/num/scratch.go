package num

import (
	"math"
	"math/big"
	"sync"
	"sync/atomic"
)

// Scratch is a mutable accumulator over the same arithmetic as Num. It
// exists for one reason: the subset DPs and cost evaluators perform
// Θ(2ⁿ·n²) multiply-adds, and the immutable Num API allocates a fresh
// value per operation. A Scratch performs the identical sequence of
// operations in place, so hot loops run allocation-free while producing
// bit-identical values (same precision, same rounding mode, same
// operand order).
//
// Like Num, a Scratch carries its value dyadically (odd uint128
// mantissa × 2^int32) while every result stays exactly representable,
// and spills into its big.Float only when an operation outgrows the
// form — see dyadic.go for why the two representations are
// indistinguishable to callers. Products such as α^{n²} outgrow the
// form on every generated family, so the spilled path is hot too: each
// big.Float operation there writes into a free temporary of the same
// Scratch and swaps it with s.f, never into one of its own operands,
// because math/big allocates a fresh mantissa whenever the destination
// aliases an operand. A warm Scratch therefore allocates nothing on
// either path.
//
// Discipline — scratches are pooled and MUST NOT escape:
//
//   - Obtain with NewScratch, free with Release. Between the two the
//     scratch is owned exclusively by the caller; it is not safe for
//     concurrent use (give each goroutine its own).
//   - Never retain a Scratch, or anything aliasing its internals, past
//     Release. To publish a value, snapshot it with Num() — that copy
//     is immutable and safe forever.
//   - Release at most once. The usual shape is
//     `s := num.NewScratch(); defer s.Release()`.
//
// The pool's hit rate is observable via ScratchPoolStats, which the
// engine exports as gauges.
type Scratch struct {
	f        *big.Float // big representation; authoritative when !dy
	tmp      *big.Float // transient help word and MulAdd intermediary
	t2, t3   *big.Float // operand materialization and result destinations
	t4       *big.Float // second setDy help word (see setDy on aliasing)
	mhi, mlo uint64     // dyadic odd mantissa, authoritative when dy
	exp      int32
	dy       bool
}

var (
	scratchGets atomic.Int64 // NewScratch calls (pool Gets)
	scratchNews atomic.Int64 // pool misses that allocated a fresh Scratch
)

var scratchPool = sync.Pool{New: func() any {
	scratchNews.Add(1)
	return &Scratch{f: newFloat(), tmp: newFloat(), t2: newFloat(), t3: newFloat(), t4: newFloat()}
}}

// NewScratch returns a pooled scratch accumulator initialized to 0.
func NewScratch() *Scratch {
	scratchGets.Add(1)
	s := scratchPool.Get().(*Scratch)
	s.mhi, s.mlo, s.exp, s.dy = 0, 0, 0, true
	return s
}

// Release returns s to the pool. s must not be used afterwards.
func (s *Scratch) Release() { scratchPool.Put(s) }

// ScratchPoolStats reports cumulative pool traffic: gets is the number
// of NewScratch calls, news the subset that had to allocate because the
// pool was empty. hit rate = (gets − news) / gets.
func ScratchPoolStats() (gets, news int64) {
	return scratchGets.Load(), scratchNews.Load()
}

// spill moves a dyadic value into s.f, making the big representation
// authoritative. The move is exact (≤128 mantissa bits at Prec = 256),
// so the subsequent big.Float operations see the same value the dyadic
// form carried. s.tmp and s.t4 are clobbered.
func (s *Scratch) spill() {
	if s.dy {
		setDy(s.f, s.tmp, s.t4, s.mhi, s.mlo, int64(s.exp))
		s.dy = false
	}
}

// val returns the current value as a *big.Float without changing which
// representation is authoritative: s.f directly, or the dyadic value
// materialized into dst. s.tmp and s.t4 are clobbered.
func (s *Scratch) val(dst *big.Float) *big.Float {
	if !s.dy {
		return s.f
	}
	return setDy(dst, s.tmp, s.t4, s.mhi, s.mlo, int64(s.exp))
}

// setDyVal installs a dyadic result.
func (s *Scratch) setDyVal(hi, lo uint64, e int64) *Scratch {
	s.mhi, s.mlo, s.exp, s.dy = hi, lo, int32(e), true
	return s
}

// Set sets s to n.
func (s *Scratch) Set(n Num) *Scratch {
	n.check()
	if n.dy {
		return s.setDyVal(n.mhi, n.mlo, int64(n.exp))
	}
	s.f.Set(n.f)
	s.dy = false
	return s
}

// SetScratch sets s to the current value of t.
func (s *Scratch) SetScratch(t *Scratch) *Scratch {
	if t.dy {
		return s.setDyVal(t.mhi, t.mlo, int64(t.exp))
	}
	s.f.Set(t.f)
	s.dy = false
	return s
}

// SetInt64 sets s to v. It panics if v is negative.
func (s *Scratch) SetInt64(v int64) *Scratch {
	if v < 0 {
		panic("num: Scratch.SetInt64 called with negative value")
	}
	hi, lo, e, _ := normDy(0, uint64(v), 0)
	return s.setDyVal(hi, lo, e)
}

// Add sets s to s + n.
func (s *Scratch) Add(n Num) *Scratch {
	n.check()
	if s.dy && n.dy {
		if hi, lo, e, ok := addDyRaw(s.mhi, s.mlo, int64(s.exp), n.mhi, n.mlo, int64(n.exp)); ok {
			return s.setDyVal(hi, lo, e)
		}
	}
	s.spill()
	s.t3.Add(s.f, n.bigVal(s.t2, s.tmp, s.t4))
	s.f, s.t3 = s.t3, s.f
	return s
}

// AddScratch sets s to s + t.
func (s *Scratch) AddScratch(t *Scratch) *Scratch {
	if s.dy && t.dy {
		if hi, lo, e, ok := addDyRaw(s.mhi, s.mlo, int64(s.exp), t.mhi, t.mlo, int64(t.exp)); ok {
			return s.setDyVal(hi, lo, e)
		}
	}
	s.spill()
	s.t3.Add(s.f, t.val(s.t2))
	s.f, s.t3 = s.t3, s.f
	return s
}

// Mul sets s to s · n.
func (s *Scratch) Mul(n Num) *Scratch {
	n.check()
	if s.dy && n.dy {
		if hi, lo, e, ok := mulDyRaw(s.mhi, s.mlo, int64(s.exp), n.mhi, n.mlo, int64(n.exp)); ok {
			return s.setDyVal(hi, lo, e)
		}
	}
	s.spill()
	s.t3.Mul(s.f, n.bigVal(s.t2, s.tmp, s.t4))
	s.f, s.t3 = s.t3, s.f
	return s
}

// MulScratch sets s to s · t.
func (s *Scratch) MulScratch(t *Scratch) *Scratch {
	if s.dy && t.dy {
		if hi, lo, e, ok := mulDyRaw(s.mhi, s.mlo, int64(s.exp), t.mhi, t.mlo, int64(t.exp)); ok {
			return s.setDyVal(hi, lo, e)
		}
	}
	s.spill()
	s.t3.Mul(s.f, t.val(s.t2))
	s.f, s.t3 = s.t3, s.f
	return s
}

// MulAdd sets s to s + a·b, rounding the product before the sum exactly
// like the immutable num.MulAdd, so DP candidates computed either way
// are bit-identical.
func (s *Scratch) MulAdd(a, b Num) *Scratch {
	a.check()
	b.check()
	if a.dy && b.dy {
		if phi, plo, pe, ok := mulDyRaw(a.mhi, a.mlo, int64(a.exp), b.mhi, b.mlo, int64(b.exp)); ok {
			if s.dy {
				if hi, lo, e, ok2 := addDyRaw(s.mhi, s.mlo, int64(s.exp), phi, plo, pe); ok2 {
					return s.setDyVal(hi, lo, e)
				}
			}
			// Exact product, wide sum: big.Float would have formed the same
			// exact product, so only the addition rounds.
			s.spill()
			setDy(s.tmp, s.t2, s.t4, phi, plo, pe)
			s.t2.Add(s.f, s.tmp)
			s.f, s.t2 = s.t2, s.f
			return s
		}
	}
	s.spill()
	av := a.bigVal(s.t2, s.tmp, s.t4)
	bv := b.bigVal(s.t3, s.tmp, s.t4)
	s.tmp.Mul(av, bv)
	s.t2.Add(s.f, s.tmp)
	s.f, s.t2 = s.t2, s.f
	return s
}

// Cmp compares s against n, returning −1, 0 or +1.
func (s *Scratch) Cmp(n Num) int {
	n.check()
	if s.dy && n.dy {
		return cmpDyRaw(s.mhi, s.mlo, int64(s.exp), n.mhi, n.mlo, int64(n.exp))
	}
	sv := s.val(s.t2)
	return sv.Cmp(n.bigVal(s.t3, s.tmp, s.t4))
}

// CmpScratch compares s against t, returning −1, 0 or +1.
func (s *Scratch) CmpScratch(t *Scratch) int {
	if s.dy && t.dy {
		return cmpDyRaw(s.mhi, s.mlo, int64(s.exp), t.mhi, t.mlo, int64(t.exp))
	}
	sv := s.val(s.t2)
	return sv.Cmp(t.val(s.t3))
}

// Sign returns 0 when s is zero and +1 otherwise (scratches are
// non-negative like Num).
func (s *Scratch) Sign() int {
	if s.dy {
		if s.mhi|s.mlo == 0 {
			return 0
		}
		return 1
	}
	return s.f.Sign()
}

// Num snapshots the current value as an immutable Num. The snapshot
// does not alias the scratch and survives Release; dyadic snapshots
// allocate nothing.
func (s *Scratch) Num() Num {
	if s.dy {
		return Num{mhi: s.mhi, mlo: s.mlo, exp: s.exp, dy: true}
	}
	return Num{f: newFloat().Set(s.f)}
}

// Log2 returns log₂ of the current value without allocating. It panics
// on zero, like Num.Log2.
func (s *Scratch) Log2() float64 {
	if s.dy {
		if s.mhi|s.mlo == 0 {
			panic("num: Log2 of zero")
		}
		return log2DyRaw(s.mhi, s.mlo, int64(s.exp))
	}
	if s.f.Sign() == 0 {
		panic("num: Log2 of zero")
	}
	exp := s.f.MantExp(s.tmp) // s = tmp · 2^exp, tmp ∈ [0.5, 1)
	m, _ := s.tmp.Float64()
	return float64(exp) + math.Log2(m)
}
