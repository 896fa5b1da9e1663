// Package classify is the adaptive optimizer router: cheap structural
// feature extraction over a QO_N instance feeding a rule-based decision
// about which ensemble tiers to run and how much of the request budget
// they deserve.
//
// The rules encode the paper's complexity landscape. Its hardness
// constructions (the cliquered f_N reduction, the e(m)-constrained
// sparse graphs of Theorems 16/17) are statistics-free: uniform sizes
// and uniform selectivities carry no signal a heuristic can exploit,
// and every polynomial heuristic can be off by α^Θ(n) — those shapes
// must reach the certified exact tier. Conversely, when selectivity is
// visible in the query structure (a star around a skewed fact table
// with key–foreign-key selectivities, a chain with planted strongly
// selective edges), the greedy tier alone is empirically within ε of
// exact — the "When Greedy Beats Optimal" regime — and running the
// exponential tier is wasted budget. The competitive-ratio harness
// (ratio_test.go) holds the router to those claims per workload family.
//
// Every feature is a function of degree multisets, edge counts and
// value multisets, so features are invariant under vertex relabeling by
// construction (property-tested against qon.Relabel).
package classify

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"approxqo/internal/engine"
	"approxqo/internal/opt"
	"approxqo/internal/qoh"
	"approxqo/internal/qon"
)

// Thresholds of the rule base. Exported so the docs, tests and DESIGN
// record reference the live values.
const (
	// SelectiveGapBits is the minimum log₂ gap between the selective
	// group and the mild rest for the planted-selectivity signal to
	// count as visible (chain-selective plants a ≥ 2^18 separation).
	SelectiveGapBits = 8.0
	// SelectiveFloorLog2 is the ceiling (in log₂) the selective group
	// must sit below: an edge is "strongly selective" only under 2^−10.
	SelectiveFloorLog2 = -10.0
	// SkewBits is the minimum log₂ cardinality spread for a star hub to
	// count as skewed (the skewed-star default hub factor is 2^10).
	SkewBits = 8.0
	// KeyJoinMaxSelLog2 is the log₂ ceiling every star edge must stay
	// under for the star to look key–foreign-key joined.
	KeyJoinMaxSelLog2 = -4.0
	// distinctEps separates two log₂ values when counting distinct
	// cardinalities/selectivities; exact duplicates (planted or uniform
	// values) compare equal, independent random draws never collide.
	distinctEps = 1e-9
)

// Features is the relabel-invariant structural summary the router
// decides on.
type Features struct {
	N     int `json:"n"`
	Edges int `json:"edges"`
	// Density is 2m / n(n−1).
	Density   float64 `json:"density"`
	MinDegree int     `json:"min_degree"`
	MaxDegree int     `json:"max_degree"`

	IsChain  bool `json:"is_chain"`
	IsStar   bool `json:"is_star"`
	IsCycle  bool `json:"is_cycle"`
	IsClique bool `json:"is_clique"`

	// DistinctCards / DistinctSels / DistinctCosts count distinct
	// relation sizes, edge selectivities and edge access costs. All
	// three collapsing to ≤ 1 is the statistics-free signature of the
	// f_N reduction's uniform instances.
	DistinctCards int `json:"distinct_cards"`
	DistinctSels  int `json:"distinct_sels"`
	DistinctCosts int `json:"distinct_costs"`
	// Uniform marks that statistics-free signature.
	Uniform bool `json:"uniform"`

	// CardSpreadLog2 is log₂(max tᵢ / min tᵢ) — the weight-skew signal.
	CardSpreadLog2 float64 `json:"card_spread_log2"`
	// HubSkewLog2, set only for stars, is log₂(t_hub / max other tᵢ):
	// positive when the hub is the fact table, ≥ SkewBits when it
	// dominates every dimension the way skewed-star builds it.
	HubSkewLog2 float64 `json:"hub_skew_log2,omitempty"`
	// MaxSelLog2 is log₂ of the largest edge selectivity (0 when every
	// edge keeps everything, strongly negative when all edges filter).
	MaxSelLog2 float64 `json:"max_sel_log2"`
	// SelGapLog2 is the widest gap between adjacent sorted edge log₂
	// selectivities; SelectiveEdges counts the edges below that gap
	// when the gap is ≥ SelectiveGapBits wide and the group below it
	// sits under SelectiveFloorLog2 — i.e. when the planted-selective-
	// edge signal is visible without statistics.
	SelGapLog2     float64 `json:"sel_gap_log2"`
	SelectiveEdges int     `json:"selective_edges"`
}

// Extract computes the feature vector. It reads only degree counts and
// the S/T/W value multisets — O(n²) scalar work, no cost evaluations —
// so extraction stays far under any request budget (BenchmarkRegClassify
// pins it).
func Extract(in *qon.Instance) Features {
	n := in.N()
	f := Features{N: n, Edges: in.Q.EdgeCount()}
	if n > 1 {
		f.Density = float64(2*f.Edges) / float64(n*(n-1))
	}
	deg1, deg2 := 0, 0
	f.MinDegree = n
	for v := 0; v < n; v++ {
		d := in.Q.Degree(v)
		if d < f.MinDegree {
			f.MinDegree = d
		}
		if d > f.MaxDegree {
			f.MaxDegree = d
		}
		switch d {
		case 1:
			deg1++
		case 2:
			deg2++
		}
	}
	// Topology predicates from degree multisets + edge count: all
	// invariant under relabeling.
	connectedTree := f.Edges == n-1 && in.Q.IsConnected()
	f.IsChain = n >= 2 && connectedTree && (n == 2 || (deg1 == 2 && deg2 == n-2))
	f.IsStar = n >= 3 && connectedTree && deg1 == n-1 && f.MaxDegree == n-1
	f.IsCycle = n >= 3 && f.Edges == n && deg2 == n && in.Q.IsConnected()
	f.IsClique = f.Edges == n*(n-1)/2

	cards := make([]float64, n)
	for i, t := range in.T {
		cards[i] = t.Log2()
	}
	sort.Float64s(cards)
	f.DistinctCards = countDistinct(cards)
	f.CardSpreadLog2 = cards[n-1] - cards[0]
	if f.IsStar {
		// The hub is the unique max-degree vertex (relabel-invariant);
		// its skew over the largest spoke is the fact-table signal.
		maxOther := math.Inf(-1)
		hub := 0.0
		for v := 0; v < n; v++ {
			lg := in.T[v].Log2()
			if in.Q.Degree(v) == n-1 {
				hub = lg
			} else if lg > maxOther {
				maxOther = lg
			}
		}
		f.HubSkewLog2 = hub - maxOther
	}

	sels := make([]float64, 0, f.Edges)
	costs := make([]float64, 0, f.Edges)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if !in.Q.HasEdge(i, j) {
				continue
			}
			sels = append(sels, in.S[i][j].Log2())
			costs = append(costs, in.W[i][j].Log2(), in.W[j][i].Log2())
		}
	}
	sort.Float64s(sels)
	sort.Float64s(costs)
	f.DistinctSels = countDistinct(sels)
	f.DistinctCosts = countDistinct(costs)
	if len(sels) > 0 {
		f.MaxSelLog2 = sels[len(sels)-1]
		gapAt := -1
		for i := 1; i < len(sels); i++ {
			if g := sels[i] - sels[i-1]; g > f.SelGapLog2 {
				f.SelGapLog2, gapAt = g, i
			}
		}
		if f.SelGapLog2 >= SelectiveGapBits && gapAt > 0 && sels[gapAt-1] <= SelectiveFloorLog2 {
			f.SelectiveEdges = gapAt
		}
	}
	f.Uniform = f.DistinctCards <= 1 && f.DistinctSels <= 1 && f.DistinctCosts <= 1
	return f
}

func countDistinct(sorted []float64) int {
	if len(sorted) == 0 {
		return 0
	}
	distinct := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i]-sorted[i-1] > distinctEps {
			distinct++
		}
	}
	return distinct
}

// Class names the population the router believes the instance belongs
// to.
type Class string

const (
	// ClassAdversarial is the statistics-free uniform signature of the
	// f_N hardness reduction: no heuristic carries a guarantee, only
	// the certified exact tier is safe.
	ClassAdversarial Class = "adversarial"
	// ClassStarSkewed is a star around a skewed hub with key–foreign-
	// key selectivities on every spoke: greedy-sufficient.
	ClassStarSkewed Class = "star-skewed"
	// ClassChainSelective is a chain with a visible planted-selective-
	// edge group: greedy-sufficient.
	ClassChainSelective Class = "chain-selective"
	// ClassSparse is an e(m)-budget sparse graph without a recognized
	// greedy-sufficient pattern — the Theorem 16/17 regime where
	// hardness hides, so the full ensemble runs.
	ClassSparse Class = "sparse"
	// ClassGeneral is everything else: full ensemble.
	ClassGeneral Class = "general"
)

// Tier is one slice of the ensemble, in increasing cost:
// greedy (deterministic polynomial), local (randomized local search),
// exact (exponential certified DP/enumeration).
type Tier string

const (
	TierGreedy Tier = "greedy"
	TierLocal  Tier = "local"
	TierExact  Tier = "exact"
)

// AllTiers is the full-ensemble tier set in default priority order.
func AllTiers() []Tier { return []Tier{TierGreedy, TierLocal, TierExact} }

// Decision is the router's verdict: which tiers run, in priority order
// (the degradation ladder sheds from the end, so the first tier is the
// one the classifier says matters most), and what fraction of the
// request budget the reduced ensemble deserves.
type Decision struct {
	Class Class `json:"class"`
	// Recognized marks a greedy-sufficient claim: the competitive-ratio
	// harness asserts routed cost ≤ (1+ε)·full on recognized classes.
	Recognized bool `json:"recognized"`
	// Tiers run, most-important first.
	Tiers []Tier `json:"tiers"`
	// Degraded lists tiers shed by the load ladder (reported as
	// "degraded" skips, distinct from "routing" skips).
	Degraded []Tier `json:"degraded,omitempty"`
	// BudgetFrac scales the request deadline for reduced ensembles.
	BudgetFrac float64  `json:"budget_frac"`
	Reason     string   `json:"reason"`
	Features   Features `json:"features"`
}

// Route maps a feature vector to a routing decision. It is a pure
// function: equal features always produce equal decisions.
func Route(f Features) Decision {
	d := Decision{BudgetFrac: 1, Features: f}
	switch {
	case f.Uniform && f.N >= 4:
		// Statistics-free instance: the f_N signature. Exact first — it
		// is the only tier with a guarantee here, so under load it is
		// the last thing to shed. Local search spends budget chasing a
		// surface with no exploitable statistics; route it away.
		d.Class = ClassAdversarial
		d.Tiers = []Tier{TierExact, TierGreedy}
		d.Reason = fmt.Sprintf("uniform sizes/selectivities/costs (statistics-free, f_N signature): only the certified exact tier carries a guarantee; %d vertices, density %.2f", f.N, f.Density)
	case f.IsChain && f.SelectiveEdges >= 1:
		d.Class = ClassChainSelective
		d.Recognized = true
		d.Tiers = []Tier{TierGreedy}
		d.BudgetFrac = 0.25
		d.Reason = fmt.Sprintf("chain with %d planted selective edge(s) visible across a %.1f-bit gap: greedy tier sufficient", f.SelectiveEdges, f.SelGapLog2)
	case f.IsStar && f.HubSkewLog2 >= SkewBits && f.MaxSelLog2 <= KeyJoinMaxSelLog2:
		d.Class = ClassStarSkewed
		d.Recognized = true
		d.Tiers = []Tier{TierGreedy}
		d.BudgetFrac = 0.25
		d.Reason = fmt.Sprintf("star whose hub dominates every dimension by %.1f bits with key-join selectivities (max 2^%.1f): greedy tier sufficient", f.HubSkewLog2, f.MaxSelLog2)
	case f.Edges <= sparseEdgeBudget(f.N):
		// Sparse e(m)-budget graphs are where Theorems 16/17 put the
		// hardness — without a recognized pattern, run everything.
		d.Class = ClassSparse
		d.Tiers = AllTiers()
		d.Reason = fmt.Sprintf("sparse graph (%d edges ≤ e(m) budget %d) without a recognized pattern: full ensemble, exact tier sheds first", f.Edges, sparseEdgeBudget(f.N))
	default:
		d.Class = ClassGeneral
		d.Tiers = AllTiers()
		d.Reason = fmt.Sprintf("no recognized pattern (density %.2f): full ensemble, exact tier sheds first", f.Density)
	}
	return d
}

// sparseEdgeBudget is m + ⌈m^¾⌉ — the top of the §6 e(m) range the
// sparse class covers (τ = 0.5 generators sit well inside it).
func sparseEdgeBudget(n int) int {
	return n + int(math.Ceil(math.Pow(float64(n), 0.75)))
}

// Degrade sheds the decision's least-important tier (the last one),
// keeping at least one. The ladder calls this instead of hard-coding
// "drop exact": for adversarial instances the classifier keeps the
// exact tier and sheds the heuristics instead.
func (d Decision) Degrade() Decision {
	if len(d.Tiers) <= 1 {
		return d
	}
	last := d.Tiers[len(d.Tiers)-1]
	nd := d
	nd.Tiers = append([]Tier(nil), d.Tiers[:len(d.Tiers)-1]...)
	nd.Degraded = append(append([]Tier(nil), d.Degraded...), last)
	nd.Reason = d.Reason + fmt.Sprintf("; load ladder shed the %s tier", last)
	return nd
}

// Reduced reports whether the decision runs fewer tiers than the full
// ensemble (by routing or degradation). The server refuses to cache
// reduced results unless they are certified exact.
func (d Decision) Reduced() bool { return len(d.Tiers) < len(AllTiers()) }

func (d Decision) has(t Tier) bool {
	for _, x := range d.Tiers {
		if x == t {
			return true
		}
	}
	return false
}

func (d Decision) shedBy(t Tier) string {
	for _, x := range d.Degraded {
		if x == t {
			return engine.SkipDegraded
		}
	}
	return engine.SkipRouting
}

// serialDPMaxN is the largest n whose exact tier is the serial subset
// DP — and the reach within which the builder trusts that DP to finish
// inside a request budget, so it leaves the local tier out: nothing
// local search finds can beat the certified optimum, and every core it
// burns is taken from concurrent requests. The serial DP over all
// eleven workload families (seed 100, two runs) on a shared 2-core VM
// took at most 0.13 s at n=15 and 0.18 s at n=16 — under a quarter of
// the server's 2 s default budget — against 0.73 s at n=17 and 1.35 s
// at n=18 (DESIGN.md § One serving-ensemble builder). Above it
// the parallel DP takes the exact slot and local search runs alongside
// as the anytime fallback. Deliberately not a knob.
const serialDPMaxN = 16

// exactMember is the exact tier's single member for an n-relation
// instance, with the size cap it serves up to.
func exactMember(n int) (opt.Optimizer, int) {
	if n <= serialDPMaxN {
		return opt.NewDP(), serialDPMaxN
	}
	return opt.NewDPParallel(), opt.DefaultMaxDPN + 2
}

// Unrouted is the decision of a request that bypasses the classifier:
// every tier, so the ensemble depends only on n and breaker state. The
// load ladder degrades it like any other decision, shedding the exact
// tier.
func Unrouted() Decision {
	return Decision{Class: ClassGeneral, Tiers: AllTiers(), BudgetFrac: 1,
		Reason: "routing off: every tier"}
}

// Ensemble is the QO_N serving-ensemble builder: it materializes the
// decision into optimizers for an n-relation instance, plus one
// SkipRecord per member left out. Tiers, in ensemble order:
//
//   - greedy: greedy-min-size, greedy-min-cost, kbz — polynomial
//     insurance that runs whenever the tier is routed;
//   - local: annealing, iterative-improvement — left
//     out (reason "exact_in_reach") while the exact member is routed,
//     within serialDPMaxN and its circuit closed;
//   - exact: one member chosen by n (see exactMember), reported
//     "out_of_range" past the parallel DP's cap.
//
// Unrouted tiers are reported "routing" or "degraded". allow is the
// breaker's admission check (nil admits everyone); members it refuses
// are reported "breaker". An ensemble left empty — an exact-only
// decision past the cap, or every routed circuit open — falls back to
// the greedy tier. Deterministic in (d, n, seed, allow).
func Ensemble(d Decision, n int, seed int64, allow func(name string) bool) ([]opt.Optimizer, []engine.SkipRecord) {
	b := builder[opt.Optimizer]{d: d, allow: allow, name: opt.Optimizer.Name}
	greedy := func() []opt.Optimizer {
		return []opt.Optimizer{
			opt.NewGreedy(opt.GreedyMinSize, opt.WithSeed(seed)),
			opt.NewGreedy(opt.GreedyMinCost, opt.WithSeed(seed)),
			opt.NewKBZ(opt.WithSeed(seed)),
		}
	}
	exact, exactCap := exactMember(n)
	inReach := d.has(TierExact) && n <= serialDPMaxN && (allow == nil || allow(exact.Name()))

	b.take(TierGreedy, greedy()...)
	local := []opt.Optimizer{
		opt.NewAnnealing(opt.WithSeed(seed)),
		opt.NewIterativeImprovement(opt.WithSeed(seed), opt.WithRestarts(5)),
	}
	if inReach && d.has(TierLocal) {
		b.skip(engine.SkipExactInReach, fmt.Sprintf("%s certifies the optimum at n=%d", exact.Name(), n), local...)
	} else {
		b.take(TierLocal, local...)
	}
	b.takeCapped(exact, n, exactCap)
	return b.done(greedy)
}

// QOHEnsemble is the QO_H serving-ensemble builder, under the same
// decision, breaker check, skip reasons and greedy fallback as
// Ensemble. Its tiers are one member each: qoh-greedy (greedy),
// qoh-annealing (local) and qoh-exhaustive (exact), the last reported
// "out_of_range" above qoh.MaxExhaustiveN. The local tier is never
// skipped as "exact_in_reach". Deterministic in (d, n, seed, allow).
func QOHEnsemble(d Decision, n int, seed int64, allow func(name string) bool) ([]engine.QOHSearcher, []engine.SkipRecord) {
	b := builder[engine.QOHSearcher]{d: d, allow: allow,
		name: func(sr engine.QOHSearcher) string { return sr.Name }}
	// QOHSearchers lists greedy, annealing, exhaustive.
	searchers := engine.QOHSearchers(opt.WithSeed(seed))
	b.take(TierGreedy, searchers[0])
	b.take(TierLocal, searchers[1])
	b.takeCapped(searchers[2], n, qoh.MaxExhaustiveN)
	return b.done(func() []engine.QOHSearcher { return searchers[:1] })
}

// builder collects one ensemble's members, and a SkipRecord for each
// member the decision, the size cap or the breaker leaves out.
type builder[T any] struct {
	d       Decision
	allow   func(name string) bool
	name    func(T) string
	members []T
	skipped []engine.SkipRecord
}

func (b *builder[T]) skip(reason, detail string, ms ...T) {
	for _, m := range ms {
		b.skipped = append(b.skipped, engine.SkipRecord{Name: b.name(m), Reason: reason, Detail: detail})
	}
}

// take adds tier t's members, or reports them when t is not routed or
// their circuit is open.
func (b *builder[T]) take(t Tier, ms ...T) {
	if !b.d.has(t) {
		b.skip(b.d.shedBy(t), fmt.Sprintf("%s tier not routed for class %s", t, b.d.Class), ms...)
		return
	}
	for _, m := range ms {
		if b.allow == nil || b.allow(b.name(m)) {
			b.members = append(b.members, m)
		} else {
			b.skip(engine.SkipBreaker, "circuit open after repeated quarantine", m)
		}
	}
}

// takeCapped takes the exact tier's member, reported "out_of_range"
// when the exact tier is routed but n exceeds the member's cap.
func (b *builder[T]) takeCapped(exact T, n, limit int) {
	if b.d.has(TierExact) && n > limit {
		b.skip(engine.SkipOutOfRange, fmt.Sprintf("n=%d above cap %d", n, limit), exact)
		return
	}
	b.take(TierExact, exact)
}

// done returns the ensemble, or — never serving an empty one — the
// greedy tier, whose members then leave the skip list (a fully open
// breaker half-opens here, probing them again).
func (b *builder[T]) done(greedy func() []T) ([]T, []engine.SkipRecord) {
	if len(b.members) > 0 {
		return b.members, b.skipped
	}
	fallback := greedy()
	skipped := slices.DeleteFunc(b.skipped, func(sk engine.SkipRecord) bool {
		return slices.ContainsFunc(fallback, func(m T) bool { return b.name(m) == sk.Name })
	})
	return fallback, skipped
}
