package server

import (
	"sort"
	"sync"
	"time"
)

// Breaker is a per-optimizer circuit breaker layered over the engine's
// per-run quarantine. Quarantine benches a misbehaving optimizer for
// the remainder of one run; the breaker remembers across requests — an
// optimizer that keeps getting quarantined (or keeps failing without a
// certified result) is left out of subsequent ensembles entirely until
// a cooldown lapses, so a wedged or compromised component stops
// costing every request its failed run and grace windows.
type Breaker struct {
	threshold int           // consecutive failures that open the circuit
	cooldown  time.Duration // how long an open circuit stays open
	now       func() time.Time

	mu    sync.Mutex
	state map[string]*breakerState
}

type breakerState struct {
	consecutive int
	openUntil   time.Time
}

// DefaultBreakerThreshold and DefaultBreakerCooldown are the breaker's
// defaults: three consecutive failed requests open the circuit for
// five seconds.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 5 * time.Second
)

// NewBreaker builds a breaker; non-positive arguments take the
// defaults.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &Breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		state:     make(map[string]*breakerState),
	}
}

// Allow reports whether the named optimizer may join the next
// ensemble. An open circuit whose cooldown has lapsed half-opens: the
// optimizer is admitted again, and the next Record decides whether the
// circuit closes or re-opens.
func (b *Breaker) Allow(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.state[name]
	if st == nil {
		return true
	}
	return !st.openUntil.After(b.now())
}

// Record folds one request's outcome for the named optimizer into the
// breaker: ok resets the consecutive-failure count and closes the
// circuit; a failure increments it and opens the circuit at the
// threshold.
func (b *Breaker) Record(name string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.state[name]
	if st == nil {
		st = &breakerState{}
		b.state[name] = st
	}
	if ok {
		st.consecutive = 0
		st.openUntil = time.Time{}
		return
	}
	st.consecutive++
	if st.consecutive >= b.threshold {
		st.openUntil = b.now().Add(b.cooldown)
	}
}

// Open lists the optimizers whose circuits are currently open, sorted
// by name — the /readyz payload.
func (b *Breaker) Open() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	var open []string
	for name, st := range b.state {
		if st.openUntil.After(now) {
			open = append(open, name)
		}
	}
	sort.Strings(open)
	return open
}
