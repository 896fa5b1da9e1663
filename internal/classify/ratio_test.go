package classify

// The competitive-ratio harness: the router's quality contract,
// measured, asserted and pinned as a regression baseline.
//
// For every workload family the harness runs each instance twice
// through the supervised engine — once with the routed ensemble, once
// with the full three-tier ensemble — and compares certified best
// costs and wall times. Any exact:true result on either side must equal
// an independent serial-DP oracle. The acceptance criteria it enforces:
//
//	(a) routed cost ≤ (1+ε)·full cost on every recognized family;
//	(b) cliquered adversarial instances always reach the certified
//	    exact tier (the routed run returns a certified-exact result
//	    whose cost equals an independent serial-DP oracle's);
//	(c) routed p50 wall time strictly below full-ensemble p50 on the
//	    greedy-sufficient families.
//
// Every optimizer in a recognized family's routed ensemble is
// deterministic and the full run's winner is the exact DP optimum, so
// the measured ratios are exactly reproducible; testdata/
// ratio_baseline.json pins them (refresh with -update). Unrecognized
// non-adversarial families (sparse, general) run the identical full
// ensemble on both sides — at ratioN the greedy tier plus the serial
// DP, so both sides are exact and the oracle check covers them; their
// ratio is recorded in the baseline for the record but not pinned.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"approxqo/internal/engine"
	"approxqo/internal/num"
	"approxqo/internal/qon"
	"approxqo/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/ratio_baseline.json with measured ratios")

// Epsilon is the competitive-ratio slack asserted on recognized
// families: routed cost ≤ (1+Epsilon)·full cost. The measured worst
// case (chain-selective) is ≈ 1.007.
const Epsilon = 0.02

const (
	ratioN     = 12
	ratioSeeds = 8
)

type familyResult struct {
	Class         string  `json:"class"`
	Recognized    bool    `json:"recognized"`
	WorstRatioL2  float64 `json:"worst_ratio_log2"`
	RoutedP50MS   float64 `json:"-"`
	FullP50MS     float64 `json:"-"`
	RoutedNames   int     `json:"routed_optimizers"`
	ExactReached  bool    `json:"exact_reached"`
	GreedyEnough  bool    `json:"greedy_sufficient"`
	SeedsMeasured int     `json:"seeds"`
}

type ratioBaseline struct {
	Epsilon  float64                 `json:"epsilon"`
	N        int                     `json:"n"`
	Families map[string]familyResult `json:"families"`
}

func runEnsemble(t *testing.T, eng *engine.Engine, in *qon.Instance, d Decision, seed int64) *engine.Report {
	t.Helper()
	optimizers, _ := Ensemble(d, in.N(), seed, nil)
	rep, err := eng.Run(ctx, in, optimizers...)
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	if rep.Best == nil {
		t.Fatalf("no certified best for class %s", d.Class)
	}
	return rep
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return ys[len(ys)/2]
}

func TestCompetitiveRatio(t *testing.T) {
	families := []string{"skewed-star", "chain-selective", "sparse-em", "cliquered-yes", "cliquered-no"}
	eng := engine.New()
	onePlusEps := num.FromFloat64(1 + Epsilon)
	results := map[string]familyResult{}

	for _, family := range families {
		var routedWalls, fullWalls []float64
		res := familyResult{ExactReached: true, GreedyEnough: true}
		seeds := int64(ratioSeeds)
		if family == "cliquered-yes" || family == "cliquered-no" {
			// The promise pair is deterministic in n; one seed suffices.
			seeds = 1
		}
		for seed := int64(0); seed < seeds; seed++ {
			spec := &workload.Spec{Shape: family, N: ratioN, Seed: seed}
			in, err := spec.Generate()
			if err != nil {
				t.Fatalf("%s seed %d: %v", family, seed, err)
			}
			d := Route(Extract(in))
			res.Class, res.Recognized = string(d.Class), d.Recognized

			full := Decision{Class: d.Class, Tiers: AllTiers(), BudgetFrac: 1}
			routedRep := runEnsemble(t, eng, in, d, 100+seed)
			fullRep := runEnsemble(t, eng, in, full, 100+seed)
			routedWalls = append(routedWalls, routedRep.WallMS)
			fullWalls = append(fullWalls, fullRep.WallMS)
			res.RoutedNames = len(routedRep.Runs)
			res.SeedsMeasured++

			routedCost, fullCost := routedRep.Best.Cost, fullRep.Best.Cost
			optimum := oracle(t, in)
			for side, rep := range map[string]*engine.Report{"routed": routedRep, "full": fullRep} {
				if rep.Best.Exact && !rep.Best.Cost.Equal(optimum) {
					t.Fatalf("%s seed %d: %s run served exact 2^%.6f, oracle 2^%.6f",
						family, seed, side, rep.Best.CostLog2, optimum.Log2())
				}
			}
			deterministic := d.Recognized || d.Class == ClassAdversarial
			if deterministic && routedCost.Less(fullCost) {
				// Only meaningful where the full run's winner is the
				// certified exact optimum: a reduced routed ensemble
				// beating it means the full run lost a certified result.
				// On sparse/general both sides are the same stochastic
				// ensemble and either may win.
				t.Fatalf("%s seed %d: routed cost below the full ensemble's — the full run lost a certified result (routed 2^%.3f, full 2^%.3f)",
					family, seed, routedRep.Best.CostLog2, fullRep.Best.CostLog2)
			}
			// Criterion (a): routed ≤ (1+ε)·full, in exact arithmetic.
			if d.Recognized && !routedCost.LessEq(fullCost.Mul(onePlusEps)) {
				t.Errorf("%s seed %d: routed cost 2^%.4f exceeds (1+ε)·full (full 2^%.4f, ε=%g)",
					family, seed, routedRep.Best.CostLog2, fullRep.Best.CostLog2, Epsilon)
			}
			if excess := routedRep.Best.CostLog2 - fullRep.Best.CostLog2; excess > res.WorstRatioL2 {
				res.WorstRatioL2 = excess
			}
			res.ExactReached = res.ExactReached && routedRep.Best.Exact
			res.GreedyEnough = res.GreedyEnough && routedCost.Equal(fullCost)

			// Criterion (b): adversarial instances reach the certified
			// exact tier through the routed ensemble.
			if d.Class == ClassAdversarial {
				if d.Tiers[0] != TierExact {
					t.Fatalf("%s: routed away from the exact tier: %v", family, d.Tiers)
				}
				if !routedRep.Best.Exact || !routedRep.Best.Certified {
					t.Errorf("%s seed %d: routed adversarial result not certified exact (exact=%v certified=%v)",
						family, seed, routedRep.Best.Exact, routedRep.Best.Certified)
				}
				// Held to the independent oracle, not to the full run:
				// the two ensembles share their exact member, so they
				// could be wrong together.
				if !routedCost.Equal(optimum) {
					t.Errorf("%s seed %d: routed adversarial cost 2^%.4f differs from the oracle optimum 2^%.4f",
						family, seed, routedRep.Best.CostLog2, optimum.Log2())
				}
			}
		}
		res.RoutedP50MS, res.FullP50MS = median(routedWalls), median(fullWalls)
		// Criterion (c): the point of routing — recognized families are
		// served strictly faster than the full ensemble at p50.
		if res.Recognized && res.RoutedP50MS >= res.FullP50MS {
			t.Errorf("%s: routed p50 %.2fms not below full p50 %.2fms", family, res.RoutedP50MS, res.FullP50MS)
		}
		t.Logf("%-16s class=%-15s recognized=%-5v worst_ratio=2^%.4f routed_p50=%.2fms full_p50=%.2fms",
			family, res.Class, res.Recognized, res.WorstRatioL2, res.RoutedP50MS, res.FullP50MS)
		results[family] = res
	}

	checkRatioBaseline(t, results)
}

// checkRatioBaseline pins the measured per-family worst ratios: a
// routing or optimizer change that degrades a family's competitive
// ratio fails here even while it still clears ε. Wall times are
// machine-dependent and are not pinned.
func checkRatioBaseline(t *testing.T, results map[string]familyResult) {
	path := filepath.Join("testdata", "ratio_baseline.json")
	if *update {
		doc := ratioBaseline{Epsilon: Epsilon, N: ratioN, Families: results}
		data, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading ratio baseline (run with -update to pin): %v", err)
	}
	var base ratioBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
	// On recognized and adversarial families the measured ratios are
	// deterministic; the slack only absorbs float64 log₂ conversion
	// noise. Unrecognized non-adversarial families race the same
	// stochastic ensemble against itself — their recorded ratio is
	// informational, not a pinned contract.
	const slack = 1e-6
	for family, want := range base.Families {
		got, ok := results[family]
		if !ok {
			t.Errorf("baseline family %q not measured", family)
			continue
		}
		pinned := want.Recognized || want.Class == string(ClassAdversarial)
		if pinned && got.WorstRatioL2 > want.WorstRatioL2+slack {
			t.Errorf("%s: worst ratio regressed: 2^%.6f, baseline 2^%.6f (re-pin intentional changes with -update)",
				family, got.WorstRatioL2, want.WorstRatioL2)
		}
		if got.Recognized != want.Recognized {
			t.Errorf("%s: recognized=%v, baseline %v", family, got.Recognized, want.Recognized)
		}
		if got.Class != want.Class {
			t.Errorf("%s: class=%q, baseline %q", family, got.Class, want.Class)
		}
	}
	for family := range results {
		if _, ok := base.Families[family]; !ok {
			t.Errorf("family %q missing from baseline (re-pin with -update)", family)
		}
	}
}
