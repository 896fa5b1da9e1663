package opt

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"approxqo/internal/cliquered"
	"approxqo/internal/core"
	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/qoh"
	"approxqo/internal/qon"
	"approxqo/internal/stats"
)

// Plain exact references for the optimizers that rank in log₂. Each
// one makes every comparison with num.Num's Less and shares no code
// with the guard band it helps check: no LogCoster, no CmpLog2, no
// stats.

// permute generates all permutations of p[k:] in place (recursive
// swap), invoking fn on the full slice for each. It stops early —
// returning false — as soon as fn returns false.
func permute(p qon.Sequence, k int, fn func(qon.Sequence) bool) bool {
	if k == len(p) {
		return fn(p)
	}
	for i := k; i < len(p); i++ {
		p[k], p[i] = p[i], p[k]
		ok := permute(p, k+1, fn)
		p[k], p[i] = p[i], p[k]
		if !ok {
			return false
		}
	}
	return true
}

// exactOptimum enumerates all n! sequences and keeps the first one of
// least exact cost: the reference the subset DPs are checked against.
func exactOptimum(in *qon.Instance) *Result {
	perm := make(qon.Sequence, in.N())
	for i := range perm {
		perm[i] = i
	}
	var best *Result
	permute(perm, 0, func(z qon.Sequence) bool {
		if c := in.Cost(z); best == nil || c.Less(best.Cost) {
			best = &Result{Sequence: append(qon.Sequence(nil), z...), Cost: c}
		}
		return true
	})
	return best
}

// exactSampler replays RandomSampler's draws (its seed, one rng.Perm
// per sample) and keeps the first exact minimum.
func exactSampler(in *qon.Instance, seed int64, samples int) *Result {
	rng := rand.New(rand.NewSource(seed))
	var best *Result
	for i := 0; i < samples; i++ {
		z := qon.Sequence(rng.Perm(in.N()))
		if c := in.Cost(z); best == nil || c.Less(best.Cost) {
			best = &Result{Sequence: z, Cost: c}
		}
	}
	return best
}

// samplerOracleSamples keeps the sampler differential inside tier-1's
// budget: every draw costs the oracle one exact evaluation.
const samplerOracleSamples = 200

// TestRandomSamplerMatchesExactOracle checks the sampler against its
// exact replay on the greedy tier's corpus at n ≤ 12: the same
// sequence and a bit-identical cost. On the f_N hardness pairs, whose
// sequence costs tie, the guard-band fallback must fire.
func TestRandomSamplerMatchesExactOracle(t *testing.T) {
	cases, cliquePairs := greedyTierCases(t)
	pair := map[string]bool{}
	for _, c := range cliquePairs {
		pair[c.name] = true
	}
	for i, c := range cases {
		if c.in.N() > 12 {
			continue
		}
		seed := int64(i)
		st := &stats.Stats{}
		got, err := NewRandomSampler(WithSeed(seed), WithSamples(samplerOracleSamples)).Optimize(ctx, c.in.WithStats(st))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := exactSampler(c.in, seed, samplerOracleSamples)
		if fmt.Sprint(got.Sequence) != fmt.Sprint(want.Sequence) {
			t.Errorf("%s: sequence %v, exact oracle %v", c.name, got.Sequence, want.Sequence)
		}
		if !bytes.Equal(canonicalCost(got.Cost), canonicalCost(want.Cost)) {
			t.Errorf("%s: cost %v, exact oracle %v", c.name, got.Cost, want.Cost)
		}
		if pair[c.name] && st.Snapshot().Fallbacks == 0 {
			t.Errorf("%s: no guard-band fallback on a hardness instance", c.name)
		}
	}
}

// exactQOHGreedy is QOHGreedy with every step made on exact next sizes,
// multiplied in qoh.Sizes order (t_v, then s_vu in ascending u); strict
// Less keeps the earlier candidate, and the earlier start on a cost tie.
func exactQOHGreedy(in *qoh.Instance) *qoh.Plan {
	n := in.N()
	var best *qoh.Plan
	for first := 0; first < n; first++ {
		if !in.FeasibleStart(first) {
			continue
		}
		z := []int{first}
		x := graph.NewBitset(n)
		x.Add(first)
		size := in.T[first]
		for len(z) < n {
			pick := -1
			var pickSize num.Num
			for v := 0; v < n; v++ {
				if x.Has(v) {
					continue
				}
				next := size.Mul(in.T[v])
				x.ForEach(func(u int) { next = next.Mul(in.S[v][u]) })
				if pick < 0 || next.Less(pickSize) {
					pick, pickSize = v, next
				}
			}
			z = append(z, pick)
			x.Add(pick)
			size = pickSize
		}
		plan, err := in.BestDecomposition(z)
		if err != nil {
			continue
		}
		if best == nil || plan.Cost.Less(best.Cost) {
			best = plan
		}
	}
	return best
}

// tiedQOH is randomQOH with sizes and selectivities drawn from small
// products of 2, 3 and 5, so that distinct candidates often extend to
// exactly equal next sizes (10·¾ = 15·½) whose float64 log₂ sums round
// apart.
func tiedQOH(n int, seed int64) *qoh.Instance {
	in := randomQOH(n, seed)
	rng := rand.New(rand.NewSource(seed))
	sizes := []int64{3, 5, 6, 10, 12, 15, 20, 30}
	sels := []float64{0.25, 0.375, 0.5, 0.625, 0.75}
	for v := range in.T {
		in.T[v] = num.FromInt64(sizes[rng.Intn(len(sizes))])
	}
	for v := 0; v < n; v++ {
		for u := 0; u < v; u++ {
			if in.Q.HasEdge(u, v) {
				s := num.FromFloat64(sels[rng.Intn(len(sels))])
				in.S[u][v], in.S[v][u] = s, s
			}
		}
	}
	return in
}

// fhPair builds the f_H YES/NO pair qohard's hash mode builds at n.
func fhPair(t *testing.T, n int) (yes, no *qoh.Instance) {
	t.Helper()
	a := 2 * int64(n)
	if a*int64(n-1)%2 != 0 {
		a++
	}
	var out [2]*qoh.Instance
	for i, omega := range []int{2 * n / 3, 2*n/3 - 1} {
		fh, err := core.FH(cliquered.CertifiedCliqueGraph(n, omega).G, core.FHParams{A: a})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fh.QOH
	}
	return out[0], out[1]
}

// TestQOHGreedyMatchesExactOracle checks QOHGreedy, which ranks in log₂,
// against the all-exact greedy: the same plan on random QO_H instances,
// on tie-prone ones, and on f_H hardness pairs, whose power-of-two
// sizes tie, so the guard-band fallback must fire there.
func TestQOHGreedyMatchesExactOracle(t *testing.T) {
	type qohCase struct {
		name     string
		in       *qoh.Instance
		hardness bool
	}
	var cases []qohCase
	for n := 2; n <= 10; n++ {
		for seed := int64(0); seed < 8; seed++ {
			cases = append(cases,
				qohCase{fmt.Sprintf("random/n=%d/seed=%d", n, seed), randomQOH(n, seed), false},
				qohCase{fmt.Sprintf("tied/n=%d/seed=%d", n, seed), tiedQOH(n, seed), false})
		}
	}
	for _, n := range []int{6, 9} {
		yes, no := fhPair(t, n)
		cases = append(cases,
			qohCase{fmt.Sprintf("fh(%d)/yes", n), yes, true},
			qohCase{fmt.Sprintf("fh(%d)/no", n), no, true})
	}
	for _, c := range cases {
		want := exactQOHGreedy(c.in)
		st := &stats.Stats{}
		got, err := QOHGreedy(ctx, c.in.WithStats(st))
		if want == nil {
			if err == nil {
				t.Errorf("%s: plan %v where the exact oracle finds none", c.name, got.Z)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if fmt.Sprint(got.Z, got.Breaks) != fmt.Sprint(want.Z, want.Breaks) {
			t.Errorf("%s: plan %v|%v, exact oracle %v|%v", c.name, got.Z, got.Breaks, want.Z, want.Breaks)
		}
		if !bytes.Equal(canonicalCost(got.Cost), canonicalCost(want.Cost)) {
			t.Errorf("%s: cost %v, exact oracle %v", c.name, got.Cost, want.Cost)
		}
		if c.hardness && st.Snapshot().Fallbacks == 0 {
			t.Errorf("%s: no guard-band fallback on a hardness instance", c.name)
		}
	}
}
