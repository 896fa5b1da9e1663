package main

import (
	"context"
	"fmt"

	"approxqo/internal/num"
	"approxqo/internal/opt"
	"approxqo/internal/qon"
)

// oracle returns the exact optimum of in from the serial subset DP, run
// outside the server. Serving a cost below it means the oracle is wrong
// and aborts the run; serving one above it is a non-optimal plan.
func oracle(ctx context.Context, in *qon.Instance) (num.Num, error) {
	r, err := opt.NewDP().Optimize(ctx, in)
	if err != nil {
		return num.Num{}, err
	}
	if !r.Exact {
		return num.Num{}, fmt.Errorf("subset DP returned a non-exact result")
	}
	return in.Cost(r.Sequence), nil
}

// bruteForceN is the size of the instances the oracle is cross-checked
// on: 7! = 5040 sequences each, well inside the n ≤ 8 the enumeration
// stays cheap at.
const bruteForceN = 7

// crossCheckOracle compares the oracle with a full enumeration of join
// sequences on one seeded instance of every family at n = bruteForceN.
func crossCheckOracle(ctx context.Context, seed int64) error {
	for k, f := range families() {
		in, err := generate(f, bruteForceN, mix(seed, 5, int64(k)))
		if err != nil {
			return err
		}
		got, err := oracle(ctx, in)
		if err != nil {
			return err
		}
		if want := bruteForce(in); !got.Equal(want) {
			return fmt.Errorf("oracle disagrees with enumeration on %s n=%d: DP 2^%.4f, enumeration 2^%.4f",
				f, bruteForceN, got.Log2(), want.Log2())
		}
	}
	return nil
}

// bruteForce enumerates every permutation (Heap's algorithm) and
// returns the least cost.
func bruteForce(in *qon.Instance) num.Num {
	n := in.N()
	z := make(qon.Sequence, n)
	for i := range z {
		z[i] = i
	}
	best := in.Cost(z)
	c := make([]int, n)
	for i := 1; i < n; {
		if c[i] < i {
			if i%2 == 0 {
				z[0], z[i] = z[i], z[0]
			} else {
				z[c[i]], z[i] = z[i], z[c[i]]
			}
			if cost := in.Cost(z); cost.Less(best) {
				best = cost
			}
			c[i]++
			i = 1
		} else {
			c[i] = 0
			i++
		}
	}
	return best
}
