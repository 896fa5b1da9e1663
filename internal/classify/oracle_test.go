package classify

import (
	"testing"

	"approxqo/internal/engine"
	"approxqo/internal/num"
	"approxqo/internal/opt"
	"approxqo/internal/qon"
	"approxqo/internal/workload"
)

// oracle is the independent optimum every exact:true report is held
// to: a fresh serial subset DP, outside the engine and the builder.
func oracle(t *testing.T, in *qon.Instance) num.Num {
	t.Helper()
	r, err := opt.NewDP().Optimize(ctx, in)
	if err != nil {
		t.Fatalf("oracle DP: %v", err)
	}
	return r.Cost
}

// TestEnsembleExactMatchesOracle is the builder's property test: every
// exact:true report it produces — routed and unrouted, across all
// workload families and n 4–16 — carries the oracle's cost, and the
// unrouted full rung, whose exact member is always in reach here, is
// always exact. Every family runs at n 4–10; the larger sizes, where
// the DP dominates the test's run time, rotate through the families.
func TestEnsembleExactMatchesOracle(t *testing.T) {
	families := workload.Families()
	eng := engine.New()
	maxN := serialDPMaxN
	if testing.Short() {
		maxN = 12
	}
	for n := 4; n <= maxN; n++ {
		picked := families
		if n > 10 {
			picked = []workload.Shape{families[n%len(families)]}
		}
		for i, family := range picked {
			seed := int64(n*31 + i)
			in, err := (&workload.Spec{Shape: string(family), N: n, Seed: seed}).Generate()
			if err != nil {
				t.Fatalf("%s n=%d: %v", family, n, err)
			}
			want := oracle(t, in)
			for _, run := range []struct {
				d         Decision
				wantExact bool
			}{{Unrouted(), true}, {Route(Extract(in)), false}} {
				d := run.d
				optimizers, _ := Ensemble(d, n, seed, nil)
				rep, err := eng.Run(ctx, in, optimizers...)
				if err != nil {
					t.Fatalf("%s n=%d class %s: %v", family, n, d.Class, err)
				}
				best := rep.Best
				if run.wantExact && !best.Exact {
					t.Errorf("%s n=%d: unrouted full rung not exact (winner %s)", family, n, best.Winner)
				}
				if best.Exact && !best.Cost.Equal(want) {
					t.Errorf("%s n=%d class %s: exact winner %s at 2^%.6f, oracle 2^%.6f",
						family, n, d.Class, best.Winner, best.CostLog2, want.Log2())
				}
				if best.Cost.Less(want) {
					t.Errorf("%s n=%d class %s: winner %s below the oracle optimum", family, n, d.Class, best.Winner)
				}
			}
		}
	}
}
