package opt

import (
	"testing"
	"testing/quick"

	"approxqo/internal/stats"
)

// dpConstructors are the three optimizers the one subset DP serves.
var dpConstructors = []func(...Option) DP{NewDP, NewDPParallel, NewDPNoCross}

// Property: the subset DP matches exhaustive enumeration exactly.
func TestQuickDPMatchesExhaustive(t *testing.T) {
	prop := func(seed int64, pRaw uint8) bool {
		n := 3 + int(seed%4&3) // 3..6
		if n < 3 {
			n = 3
		}
		in := randomInstance(n, float64(pRaw)/255, seed)
		ex := exactOptimum(in)
		dp, err := NewDP().Optimize(ctx, in)
		if err != nil {
			return false
		}
		return ex.Cost.Equal(dp.Cost) && in.Cost(dp.Sequence).Equal(dp.Cost)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// A single relation is its own plan at cost zero, for every variant.
func TestDPSingleRelation(t *testing.T) {
	in := randomInstance(1, 0, 3)
	for _, newDP := range dpConstructors {
		d := newDP()
		r, err := d.Optimize(ctx, in)
		if err != nil || !r.Cost.IsZero() {
			t.Fatalf("%s: single relation: %v, %v", d.Name(), r, err)
		}
	}
}

// Every variant enforces an explicit cap, the zero value included, and
// its default cap: DefaultMaxDPN, two more for the parallel DP.
func TestDPCap(t *testing.T) {
	if _, err := (DP{MaxN: 5}).Optimize(ctx, randomInstance(6, 0.5, 4)); err == nil {
		t.Error("zero-value DP: cap not enforced")
	}
	for _, newDP := range dpConstructors {
		d := newDP(WithMaxRelations(4))
		if _, err := d.Optimize(ctx, randomInstance(5, 0.9, 3)); err == nil {
			t.Errorf("%s: cap not enforced", d.Name())
		}
		def := DefaultMaxDPN
		if d.Name() == "subset-dp-parallel" {
			def += 2
		}
		if _, err := newDP().Optimize(ctx, randomInstance(def+1, 0.9, 3)); err == nil {
			t.Errorf("%s: default cap %d not enforced", d.Name(), def)
		}
	}
}

// The no-cross-product DP plans a single relation at cost zero.
func TestDPNoCrossSingle(t *testing.T) {
	in := randomInstance(1, 0, 2)
	r, err := NewDPNoCross().Optimize(ctx, in)
	if err != nil || !r.Cost.IsZero() {
		t.Fatalf("single relation mishandled: %v %v", r, err)
	}
}

// The no-cross-product DP enforces an explicit cap.
func TestDPNoCrossCap(t *testing.T) {
	d := NewDPNoCross(WithMaxRelations(4))
	if _, err := d.Optimize(ctx, randomInstance(5, 0.9, 3)); err == nil {
		t.Error("cap not enforced")
	}
}

// The parallel DP plans a single relation and enforces an explicit cap.
func TestDPParallelEdgeCases(t *testing.T) {
	if _, err := NewDPParallel().Optimize(ctx, randomInstance(1, 0, 1)); err != nil {
		t.Errorf("single relation: %v", err)
	}
	d := NewDPParallel(WithMaxRelations(5))
	if _, err := d.Optimize(ctx, randomInstance(6, 0.5, 2)); err == nil {
		t.Error("cap not enforced")
	}
}

// Property: the parallel DP returns exactly the serial DP's cost (the
// sequences may differ when ties exist, but costs must be bit-equal
// since both evaluate the same products in the same association).
func TestQuickDPParallelMatchesSerial(t *testing.T) {
	prop := func(seed int64, pRaw uint8) bool {
		p := float64(pRaw) / 255
		in := randomInstance(7, p, seed)
		serial, err1 := NewDP().Optimize(ctx, in)
		par, err2 := NewDPParallel().Optimize(ctx, in)
		if err1 != nil || err2 != nil {
			return false
		}
		return serial.Cost.Equal(par.Cost) &&
			in.Cost(par.Sequence).Equal(par.Cost) &&
			par.Exact
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDPParallelWorkerCounts(t *testing.T) {
	in := randomInstance(8, 0.6, 11)
	want, err := NewDP().Optimize(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		got, err := NewDPParallel(WithWorkers(workers)).Optimize(ctx, in)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !got.Cost.Equal(want.Cost) {
			t.Errorf("workers=%d: cost mismatch", workers)
		}
	}
}

// The per-run stats the goldens pin at n=6 hold at every size and
// worker count: sharding a layer changes which goroutine expands a
// mask, never how many masks and candidates are expanded.
func TestDPParallelStatsMatchSerial(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		n := 2 + int(seed)%9 // 2..10
		in := randomInstance(n, 0.5, seed)
		var serial stats.Stats
		if _, err := NewDP(WithStats(&serial)).Optimize(ctx, in); err != nil {
			t.Fatal(err)
		}
		want := serial.Snapshot()
		for _, workers := range []int{1, 2, 7} {
			var par stats.Stats
			if _, err := NewDPParallel(WithWorkers(workers), WithStats(&par)).Optimize(ctx, in); err != nil {
				t.Fatal(err)
			}
			got := par.Snapshot()
			if got.DPSubsets != want.DPSubsets || got.CostEvals != want.CostEvals {
				t.Errorf("n=%d workers=%d: dp_subsets %d cost_evals %d, serial %d %d",
					n, workers, got.DPSubsets, got.CostEvals, want.DPSubsets, want.CostEvals)
			}
		}
	}
}

// Property: the no-cross DP matches brute-force enumeration restricted
// to cartesian-product-free sequences, and is never below the
// unrestricted DP optimum.
func TestQuickDPNoCrossMatchesBruteForce(t *testing.T) {
	prop := func(seed int64, pRaw uint8) bool {
		p := 0.3 + 0.7*float64(pRaw)/255
		in := randomInstance(6, p, seed)
		restricted, errR := NewDPNoCross().Optimize(ctx, in)
		if !in.Q.IsConnected() {
			return errR != nil
		}
		if errR != nil || restricted.Exact {
			return false
		}
		if in.HasCartesianProduct(restricted.Sequence) {
			return false
		}
		if !in.Cost(restricted.Sequence).Equal(restricted.Cost) {
			return false
		}
		want := bruteConnectedOptimum(in)
		if !restricted.Cost.Equal(want) {
			return false
		}
		full, err := NewDP().Optimize(ctx, in)
		if err != nil {
			return false
		}
		return !restricted.Cost.Less(full.Cost)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDPNoCrossDisconnected(t *testing.T) {
	in := randomInstance(5, 0, 9) // edgeless
	if _, err := NewDPNoCross().Optimize(ctx, in); err == nil {
		t.Error("disconnected graph accepted")
	}
}

// KBZ (tree-exact among connected orders) must agree with the no-cross
// DP on tree query graphs.
func TestDPNoCrossAgreesWithKBZOnTrees(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		in := treeInstance(7, seed)
		kbz, err := NewKBZ().Optimize(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := NewDPNoCross().Optimize(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if !kbz.Cost.Equal(dp.Cost) {
			t.Errorf("seed %d: KBZ 2^%.3f vs no-cross DP 2^%.3f",
				seed, kbz.Cost.Log2(), dp.Cost.Log2())
		}
	}
}
