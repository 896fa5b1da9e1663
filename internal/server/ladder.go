package server

// Rung is one step of the server's graceful-degradation ladder. The
// exact optimizers are super-polynomially expensive in the worst case
// while the paper guarantees the heuristics are sometimes badly
// suboptimal, so the exact-vs-heuristic trade-off is made explicitly,
// per request, from the load observed at admission:
//
//	RungFull      → full certified ensemble (classify.Ensemble with
//	                every tier: greedy + one exact DP chosen by n)
//	RungHeuristic → exact tier shed; certified heuristic result,
//	                marked degraded in the response
//	RungShed      → request rejected outright with a structured
//	                503 + Retry-After document
//
// Requests arriving once the admission queue itself is full are not on
// the ladder at all: they get 429 + Retry-After (backpressure), the
// only rejection that promises the queue will have drained by then.
type Rung int

// The ladder's rungs, bottom to top.
const (
	RungFull Rung = iota
	RungHeuristic
	RungShed
)

// String names the rung for responses, spans and metrics.
func (r Rung) String() string {
	switch r {
	case RungFull:
		return "full"
	case RungHeuristic:
		return "heuristic"
	default:
		return "shed"
	}
}

// Degraded reports whether results served at this rung must carry
// degraded: true.
func (r Rung) Degraded() bool { return r == RungHeuristic }

// ladder places a load level (requests admitted and not yet answered,
// observed before this request joins) onto a rung. degradeAt and
// shedAt are the configured thresholds; shedAt ≤ 0 disables the shed
// rung (the queue bound alone backpressures).
func ladder(load, degradeAt, shedAt int) Rung {
	if shedAt > 0 && load >= shedAt {
		return RungShed
	}
	if load >= degradeAt {
		return RungHeuristic
	}
	return RungFull
}
