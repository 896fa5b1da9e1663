package opt

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"approxqo/internal/qon"
)

// DefaultAnnealingIters is the default iteration budget for simulated
// annealing.
const DefaultAnnealingIters = 20000

// DefaultSamples is the default draw count for random sampling.
const DefaultSamples = 1000

// DefaultRestarts is the default restart count for iterative
// improvement.
const DefaultRestarts = 10

// moveFrom applies a random swap or reinsert move to next (a copy of
// the current sequence) and returns the first position whose prefix
// changed — the anchor the incremental evaluator re-derives from. An
// identity draw (i == j) returns n: nothing changed, so the caller can
// skip the evaluation entirely instead of burning an exact fallback on
// a guaranteed tie.
func moveFrom(rng *rand.Rand, next qon.Sequence) int {
	n := len(next)
	i, j := rng.Intn(n), rng.Intn(n)
	if i == j {
		return n
	}
	if rng.Intn(2) == 0 {
		// Swap move.
		next[i], next[j] = next[j], next[i]
	} else {
		// Reinsert move: remove position i, insert before position j.
		v := next[i]
		copy(next[i:], next[i+1:])
		copy(next[j+1:], next[j:n-1])
		next[j] = v
	}
	if j < i {
		return j
	}
	return i
}

// Annealing is simulated annealing over permutations with swap and
// reinsert moves. Energy is log₂-cost, so acceptance probabilities stay
// meaningful despite astronomically large absolute costs. It is an
// anytime algorithm: on context cancellation it returns the best
// sequence visited so far.
//
// Moves are ranked by the tiered cost kernel: a float64 log-domain
// suffix evaluation per candidate (qon.IncEval), ordered against the
// current sequence by qon.CmpLog2, with exact num.Num confirmation for
// every accepted move. The returned Result.Cost is always an exact
// cost, bit-identical to in.Cost of the returned sequence.
type Annealing struct {
	cfg options
}

// NewAnnealing returns a simulated-annealing optimizer. Relevant
// options: WithSeed, WithIterations, WithStats.
func NewAnnealing(opts ...Option) Annealing {
	return Annealing{cfg: buildOptions(opts)}
}

// Name implements Optimizer.
func (Annealing) Name() string { return "annealing" }

// Optimize implements Optimizer.
func (a Annealing) Optimize(ctx context.Context, in *qon.Instance) (*Result, error) {
	n := in.N()
	if n == 0 {
		return nil, fmt.Errorf("opt: empty instance")
	}
	in = a.cfg.instrument(in)
	if n == 1 {
		return &Result{Sequence: qon.Sequence{0}, Cost: in.Cost(qon.Sequence{0})}, nil
	}
	iters := a.cfg.iters
	if iters <= 0 {
		iters = DefaultAnnealingIters
	}
	st := in.Stats()
	rng := rand.New(rand.NewSource(a.cfg.seed))
	cur := qon.Sequence(rng.Perm(n))
	inc := qon.NewIncEval(in, cur)
	curE := inc.CostLog2()
	curC := inc.Cost()
	best := append(qon.Sequence(nil), cur...)
	bestC := curC

	// Geometric cooling from an energy scale proportional to n·log t.
	temp := math.Max(1, curE/4)
	cooling := math.Pow(0.001/temp, 1/float64(iters))
	next := make(qon.Sequence, n)
	for it := 0; it < iters && !cancelled(ctx); it++ {
		copy(next, cur)
		from := moveFrom(rng, next)
		st.Move()
		if from == n {
			// Identity move: accepting it would change nothing.
			temp *= cooling
			continue
		}
		e := inc.MoveLog2(next, from)
		downhill := qon.CmpLog2(st, e, curE, func() int {
			return inc.MoveExact(next, from).Cmp(curC)
		}) <= 0
		if downhill || rng.Float64() < math.Exp(-(e-curE)/temp) {
			inc.Apply(next, from) // exact confirmation of the accepted move
			cur, next = next, cur
			curE = inc.CostLog2()
			curC = inc.Cost()
			if curC.Less(bestC) {
				bestC = curC
				best = append(best[:0], cur...)
			}
		}
		temp *= cooling
	}
	return &Result{Sequence: best, Cost: bestC}, nil
}

// RandomSampler evaluates k uniform random permutations and keeps the
// first cheapest — the weakest baseline, useful as a calibration floor.
// Anytime: cancellation returns the best of the samples drawn so far.
//
// Each draw is offered to the package's incumbent, which ranks it by
// LogCoster.CostLog2 under qon.CmpLog2: only a draw inside the guard
// band of the incumbent pays for an exact evaluation, and the returned
// Result.Cost is exact.
type RandomSampler struct {
	cfg options
}

// NewRandomSampler returns a random-sampling optimizer. Relevant
// options: WithSeed, WithSamples, WithStats.
func NewRandomSampler(opts ...Option) RandomSampler {
	return RandomSampler{cfg: buildOptions(opts)}
}

// Name implements Optimizer.
func (RandomSampler) Name() string { return "random-sampler" }

// Optimize implements Optimizer.
func (r RandomSampler) Optimize(ctx context.Context, in *qon.Instance) (*Result, error) {
	n := in.N()
	if n == 0 {
		return nil, fmt.Errorf("opt: empty instance")
	}
	in = r.cfg.instrument(in)
	samples := r.cfg.samples
	if samples <= 0 {
		samples = DefaultSamples
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	best := incumbent{in: in, lc: qon.NewLogCoster(in)}
	for i := 0; i < samples; i++ {
		if best.z != nil && cancelled(ctx) {
			break
		}
		best.offer(rng.Perm(n))
	}
	return best.result(), nil
}

// IterativeImprovement is repeated random-restart hill climbing with
// pairwise-swap moves to local optimality. Anytime: cancellation
// returns the best local optimum (or partial climb) reached so far.
//
// Candidate swaps are ranked via the tiered kernel exactly like
// Annealing: qon.CmpLog2 decides decisive log-domain margins directly
// and in-band margins in exact arithmetic, and accepted swaps are
// confirmed exactly — so the climb trajectory is identical to one
// computed purely in num.Num.
type IterativeImprovement struct {
	cfg options
}

// NewIterativeImprovement returns an II optimizer. Relevant options:
// WithSeed, WithRestarts, WithStats.
func NewIterativeImprovement(opts ...Option) IterativeImprovement {
	return IterativeImprovement{cfg: buildOptions(opts)}
}

// Name implements Optimizer.
func (IterativeImprovement) Name() string { return "iterative-improvement" }

// Optimize implements Optimizer.
func (ii IterativeImprovement) Optimize(ctx context.Context, in *qon.Instance) (*Result, error) {
	n := in.N()
	if n == 0 {
		return nil, fmt.Errorf("opt: empty instance")
	}
	in = ii.cfg.instrument(in)
	restarts := ii.cfg.restarts
	if restarts <= 0 {
		restarts = DefaultRestarts
	}
	st := in.Stats()
	rng := rand.New(rand.NewSource(ii.cfg.seed))
	var best *Result
	var inc *qon.IncEval
	next := make(qon.Sequence, n)
	for r := 0; r < restarts; r++ {
		cur := qon.Sequence(rng.Perm(n))
		if inc == nil {
			inc = qon.NewIncEval(in, cur)
		} else {
			inc.Reset(cur)
		}
		curC := inc.Cost()
		curE := inc.CostLog2()
		improved := true
		for improved && !cancelled(ctx) {
			improved = false
			for i := 0; i < n && !improved; i++ {
				for j := i + 1; j < n && !improved; j++ {
					copy(next, cur)
					next[i], next[j] = next[j], next[i]
					st.Move()
					if qon.CmpLog2(st, inc.MoveLog2(next, i), curE, func() int {
						return inc.MoveExact(next, i).Cmp(curC)
					}) < 0 {
						inc.Apply(next, i)
						cur, next = next, cur
						curC = inc.Cost()
						curE = inc.CostLog2()
						improved = true
					}
				}
			}
		}
		if best == nil || curC.Less(best.Cost) {
			best = &Result{Sequence: append(qon.Sequence(nil), cur...), Cost: curC}
		}
		if cancelled(ctx) {
			break
		}
	}
	return best, nil
}
