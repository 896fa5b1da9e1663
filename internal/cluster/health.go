package cluster

import (
	"sort"
	"sync"
	"time"
)

// WorkerState is one worker's position in the health state machine:
//
//	healthy --failure--> suspect --DefaultDownAfter consecutive--> down
//	suspect --success--> healthy
//	down --DownCooldown lapses--> half-open: the next probe or routed
//	     request is the trial; success closes the circuit (healthy),
//	     failure re-opens it for another cooldown.
//
// Failures are fed from two sources with equal weight: in-band routing
// outcomes (transport errors, 5xx, undecodable responses) and the
// background /readyz prober — the same consecutive-failure + cooldown +
// half-open shape as the serving layer's per-optimizer Breaker, lifted
// to whole workers.
type WorkerState int

const (
	StateHealthy WorkerState = iota
	StateSuspect
	StateDown
)

func (s WorkerState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	}
	return "unknown"
}

// DefaultDownAfter and DefaultDownCooldown configure the state machine:
// three consecutive failures mark a worker down, and a down worker is
// retried (half-open) after two seconds.
const (
	DefaultDownAfter    = 3
	DefaultDownCooldown = 2 * time.Second
)

// healthBoard tracks every worker's state. All methods are safe for
// concurrent use.
type healthBoard struct {
	downAfter int
	cooldown  time.Duration
	now       func() time.Time

	mu    sync.Mutex
	state map[string]*workerHealth

	onDown func(worker string) // down-transition hook; runs under mu, must not call back in
}

type workerHealth struct {
	state       WorkerState
	consecutive int
	retryAt     time.Time // down only: when the circuit half-opens
}

func newHealthBoard(downAfter int, cooldown time.Duration, onDown func(string)) *healthBoard {
	if downAfter <= 0 {
		downAfter = DefaultDownAfter
	}
	if cooldown <= 0 {
		cooldown = DefaultDownCooldown
	}
	return &healthBoard{
		downAfter: downAfter,
		cooldown:  cooldown,
		now:       time.Now,
		state:     make(map[string]*workerHealth),
		onDown:    onDown,
	}
}

// observe folds one outcome — an in-band routing result or a probe —
// into the worker's state.
func (h *healthBoard) observe(worker string, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.state[worker]
	if st == nil {
		st = &workerHealth{}
		h.state[worker] = st
	}
	if ok {
		st.state = StateHealthy
		st.consecutive = 0
		st.retryAt = time.Time{}
		return
	}
	st.consecutive++
	switch {
	case st.consecutive >= h.downAfter:
		if st.state != StateDown && h.onDown != nil {
			h.onDown(worker)
		}
		st.state = StateDown
		st.retryAt = h.now().Add(h.cooldown)
	default:
		st.state = StateSuspect
	}
}

// routable reports whether the worker should receive traffic right
// now: healthy and suspect workers always, down workers only once
// their cooldown has lapsed (the half-open trial — live traffic and
// probes share it, and the next observe decides the circuit).
func (h *healthBoard) routable(worker string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.state[worker]
	if st == nil || st.state != StateDown {
		return true
	}
	return !st.retryAt.After(h.now())
}

// stateOf reports the worker's current state (healthy when never seen).
func (h *healthBoard) stateOf(worker string) WorkerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	if st := h.state[worker]; st != nil {
		return st.state
	}
	return StateHealthy
}

// snapshot lists worker states for the readiness document, sorted by
// worker name for stable output.
func (h *healthBoard) snapshot(workers []string) []WorkerStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]WorkerStatus, 0, len(workers))
	for _, w := range workers {
		ws := WorkerStatus{Worker: w, State: StateHealthy.String()}
		if st := h.state[w]; st != nil {
			ws.State = st.state.String()
			ws.ConsecutiveFails = st.consecutive
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// WorkerStatus is one worker's health as reported by the coordinator's
// /readyz.
type WorkerStatus struct {
	Worker           string `json:"worker"`
	State            string `json:"state"`
	ConsecutiveFails int    `json:"consecutive_fails,omitempty"`
}
