package classify

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"approxqo/internal/engine"
	"approxqo/internal/qoh"
	"approxqo/internal/qon"
	"approxqo/internal/workload"
)

var ctx = context.Background()

func familyInstance(t *testing.T, shape string, n int, seed int64) *qon.Instance {
	t.Helper()
	spec := &workload.Spec{Shape: shape, N: n, Seed: seed}
	in, err := spec.Generate()
	if err != nil {
		t.Fatalf("generate %s: %v", shape, err)
	}
	return in
}

func TestRouteFamilies(t *testing.T) {
	cases := []struct {
		shape      string
		wantClass  Class
		recognized bool
		firstTier  Tier
	}{
		{"skewed-star", ClassStarSkewed, true, TierGreedy},
		{"chain-selective", ClassChainSelective, true, TierGreedy},
		{"sparse-em", ClassSparse, false, TierGreedy},
		{"cliquered-yes", ClassAdversarial, false, TierExact},
		{"cliquered-no", ClassAdversarial, false, TierExact},
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 10; seed++ {
			in := familyInstance(t, tc.shape, 12, seed)
			d := Route(Extract(in))
			if d.Class != tc.wantClass {
				t.Errorf("%s seed %d: class %q, want %q (reason %q)", tc.shape, seed, d.Class, tc.wantClass, d.Reason)
			}
			if d.Recognized != tc.recognized {
				t.Errorf("%s seed %d: recognized=%v, want %v", tc.shape, seed, d.Recognized, tc.recognized)
			}
			if len(d.Tiers) == 0 || d.Tiers[0] != tc.firstTier {
				t.Errorf("%s seed %d: tiers %v, want first %q", tc.shape, seed, d.Tiers, tc.firstTier)
			}
		}
	}
}

// TestRouteAdversarialNeverLosesExact is acceptance criterion (b): at
// every promise-pair size, both cliquered sides route with the exact
// tier first — so neither routing nor the degradation ladder can take
// a hardness instance away from the certified exact optimizers.
func TestRouteAdversarialNeverLosesExact(t *testing.T) {
	for _, shape := range []string{"cliquered-yes", "cliquered-no"} {
		for n := 4; n <= 16; n++ {
			in := familyInstance(t, shape, n, 1)
			d := Route(Extract(in))
			if d.Class != ClassAdversarial {
				t.Fatalf("%s n=%d: class %q, want adversarial", shape, n, d.Class)
			}
			if d.Tiers[0] != TierExact {
				t.Fatalf("%s n=%d: first tier %q, want exact", shape, n, d.Tiers[0])
			}
			// Degradation sheds from the end: the exact tier survives
			// every rung.
			deg := d.Degrade()
			if deg.Tiers[0] != TierExact {
				t.Fatalf("%s n=%d: degraded decision lost the exact tier: %v", shape, n, deg.Tiers)
			}
			names := ensembleNames(deg, n, 1)
			if !contains(names, "subset-dp") {
				t.Fatalf("%s n=%d: degraded routed ensemble has no exact DP: %v", shape, n, names)
			}
		}
	}
}

func TestRoutePlainShapesNotRecognized(t *testing.T) {
	// Plain topologies carry no visible selectivity signal: the probe
	// measured greedy up to 2^9.6 off exact on plain chains, so the
	// router must not claim them. (Topology alone is not the signal —
	// selectivity visibility is.)
	for _, shape := range []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random} {
		for seed := int64(0); seed < 10; seed++ {
			in, err := workload.Generate(workload.Params{N: 12, Shape: shape, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			d := Route(Extract(in))
			if d.Recognized {
				t.Errorf("plain %s seed %d recognized as %q: %s", shape, seed, d.Class, d.Reason)
			}
			if !d.has(TierExact) {
				t.Errorf("plain %s seed %d routed away from the exact tier: %v", shape, seed, d.Tiers)
			}
		}
	}
}

func TestDegradeOrder(t *testing.T) {
	d := Route(Extract(familyInstance(t, "sparse-em", 12, 3)))
	if !reflect.DeepEqual(d.Tiers, AllTiers()) {
		t.Fatalf("sparse tiers %v, want all", d.Tiers)
	}
	deg := d.Degrade()
	if !reflect.DeepEqual(deg.Tiers, []Tier{TierGreedy, TierLocal}) {
		t.Fatalf("degraded tiers %v, want [greedy local]", deg.Tiers)
	}
	if !reflect.DeepEqual(deg.Degraded, []Tier{TierExact}) {
		t.Fatalf("degraded record %v, want [exact]", deg.Degraded)
	}
	// Degrading to one tier is a fixed point: a request is never served
	// with an empty ensemble.
	one := deg.Degrade()
	if !reflect.DeepEqual(one.Tiers, []Tier{TierGreedy}) {
		t.Fatalf("twice-degraded tiers %v, want [greedy]", one.Tiers)
	}
	if got := one.Degrade(); !reflect.DeepEqual(got.Tiers, one.Tiers) {
		t.Fatalf("degrade of single tier changed it: %v", got.Tiers)
	}
}

func TestEnsembleSkipRecords(t *testing.T) {
	in := familyInstance(t, "chain-selective", 12, 0)
	d := Route(Extract(in))
	optimizers, skips := Ensemble(d, 12, 7, nil)
	if len(optimizers) != 3 {
		t.Fatalf("greedy tier materialized %d optimizers, want 3", len(optimizers))
	}
	reasons := map[string]string{}
	for _, sk := range skips {
		reasons[sk.Name] = sk.Reason
	}
	// Every non-greedy member of the builder's ensemble is accounted
	// for as a routing skip: the local tier and the single exact member
	// n selects. The no-cross DP and the parallel DP are not serving
	// members at n=12, so they appear nowhere.
	for _, name := range []string{"annealing", "iterative-improvement", "subset-dp"} {
		if reasons[name] != engine.SkipRouting {
			t.Errorf("%s skip reason %q, want %q (skips %v)", name, reasons[name], engine.SkipRouting, skips)
		}
	}
	for _, name := range []string{"subset-dp-no-cross", "subset-dp-parallel"} {
		if _, ok := reasons[name]; ok {
			t.Errorf("%s reported by an ensemble it is not a member of", name)
		}
	}

	// The degraded adversarial decision reports heuristics as degraded
	// skips, not routing skips.
	dAdv := Route(Extract(familyInstance(t, "cliquered-yes", 8, 0))).Degrade()
	_, advSkips := Ensemble(dAdv, 8, 7, nil)
	got := map[string]string{}
	for _, sk := range advSkips {
		got[sk.Name] = sk.Reason
	}
	if got["greedy-min-cost"] != engine.SkipDegraded {
		t.Errorf("degraded adversarial greedy skip reason %q, want %q", got["greedy-min-cost"], engine.SkipDegraded)
	}
	if got["annealing"] != engine.SkipRouting {
		t.Errorf("adversarial local skip reason %q, want %q", got["annealing"], engine.SkipRouting)
	}
}

// TestEnsembleLocalTierSkippedWhenExactInReach pins the builder's
// member table: one exact member chosen by n, and the local tier left
// out exactly while that member is routed, within serialDPMaxN and its
// circuit closed.
func TestEnsembleLocalTierSkippedWhenExactInReach(t *testing.T) {
	greedy := []string{"greedy-min-size", "greedy-min-cost", "kbz"}
	local := []string{"annealing", "iterative-improvement"}
	cat := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	openFor := func(names ...string) func(string) bool {
		return func(name string) bool { return !contains(names, name) }
	}
	adversarial := Decision{Class: ClassAdversarial, Tiers: []Tier{TierExact, TierGreedy}}
	cases := []struct {
		name      string
		d         Decision
		n         int
		allow     func(string) bool
		want      []string
		wantSkips map[string]string
	}{
		{"full n=4", Unrouted(), 4, nil, cat(greedy, []string{"subset-dp"}),
			map[string]string{"annealing": engine.SkipExactInReach, "iterative-improvement": engine.SkipExactInReach}},
		{"full n=16", Unrouted(), serialDPMaxN, nil, cat(greedy, []string{"subset-dp"}),
			map[string]string{"annealing": engine.SkipExactInReach, "iterative-improvement": engine.SkipExactInReach}},
		{"full n=17", Unrouted(), serialDPMaxN + 1, nil, cat(greedy, local, []string{"subset-dp-parallel"}), map[string]string{}},
		{"full n=22", Unrouted(), 22, nil, cat(greedy, local, []string{"subset-dp-parallel"}), map[string]string{}},
		{"full n=23", Unrouted(), 23, nil, cat(greedy, local),
			map[string]string{"subset-dp-parallel": engine.SkipOutOfRange}},
		{"heuristic rung n=12", Unrouted().Degrade(), 12, nil, cat(greedy, local),
			map[string]string{"subset-dp": engine.SkipDegraded}},
		{"exact circuit open n=12", Unrouted(), 12, openFor("subset-dp"), cat(greedy, local),
			map[string]string{"subset-dp": engine.SkipBreaker}},
		{"local circuit open n=12", Unrouted(), 12, openFor("annealing"), cat(greedy, []string{"subset-dp"}),
			map[string]string{"annealing": engine.SkipExactInReach, "iterative-improvement": engine.SkipExactInReach}},
		{"adversarial n=12", adversarial, 12, nil, cat(greedy, []string{"subset-dp"}),
			map[string]string{"annealing": engine.SkipRouting, "iterative-improvement": engine.SkipRouting}},
		{"every circuit open", Unrouted(), 12, func(string) bool { return false }, greedy,
			map[string]string{"annealing": engine.SkipBreaker, "iterative-improvement": engine.SkipBreaker, "subset-dp": engine.SkipBreaker}},
	}
	for _, tc := range cases {
		optimizers, skips := Ensemble(tc.d, tc.n, 3, tc.allow)
		var got []string
		for _, o := range optimizers {
			got = append(got, o.Name())
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: members %v, want %v", tc.name, got, tc.want)
		}
		gotSkips := map[string]string{}
		for _, sk := range skips {
			gotSkips[sk.Name] = sk.Reason
		}
		if !reflect.DeepEqual(gotSkips, tc.wantSkips) {
			t.Errorf("%s: skips %v, want %v", tc.name, gotSkips, tc.wantSkips)
		}
	}
}

// TestQOHEnsembleMembers pins the QO_H builder's member table over
// rung × n × breaker state: the exact tier (qoh-exhaustive) only at the
// full rung within qoh.MaxExhaustiveN, and an ensemble emptied by open
// circuits falling back to the greedy tier — never to the exact member
// the rung or the cap just left out.
func TestQOHEnsembleMembers(t *testing.T) {
	const (
		greedy = "qoh-greedy"
		local  = "qoh-annealing"
		exact  = "qoh-exhaustive"
	)
	small, large := qoh.MaxExhaustiveN, qoh.MaxExhaustiveN+1
	full, degraded := Unrouted(), Unrouted().Degrade()
	openFor := func(names ...string) func(string) bool {
		return func(name string) bool { return !contains(names, name) }
	}
	allOpen := func(string) bool { return false }
	cases := []struct {
		name      string
		d         Decision
		n         int
		allow     func(string) bool
		want      []string
		wantSkips map[string]string
	}{
		{"full small closed", full, small, nil, []string{greedy, local, exact}, map[string]string{}},
		{"full small exact open", full, small, openFor(exact), []string{greedy, local},
			map[string]string{exact: engine.SkipBreaker}},
		{"full small greedy open", full, small, openFor(greedy), []string{local, exact},
			map[string]string{greedy: engine.SkipBreaker}},
		{"full small all open", full, small, allOpen, []string{greedy},
			map[string]string{local: engine.SkipBreaker, exact: engine.SkipBreaker}},
		{"full large closed", full, large, nil, []string{greedy, local},
			map[string]string{exact: engine.SkipOutOfRange}},
		{"full large local open", full, large, openFor(local), []string{greedy},
			map[string]string{local: engine.SkipBreaker, exact: engine.SkipOutOfRange}},
		{"full large all open", full, large, allOpen, []string{greedy},
			map[string]string{local: engine.SkipBreaker, exact: engine.SkipOutOfRange}},
		{"degraded small closed", degraded, small, nil, []string{greedy, local},
			map[string]string{exact: engine.SkipDegraded}},
		{"degraded small local open", degraded, small, openFor(local), []string{greedy},
			map[string]string{local: engine.SkipBreaker, exact: engine.SkipDegraded}},
		{"degraded small all open", degraded, small, allOpen, []string{greedy},
			map[string]string{local: engine.SkipBreaker, exact: engine.SkipDegraded}},
		{"degraded large closed", degraded, large, nil, []string{greedy, local},
			map[string]string{exact: engine.SkipDegraded}},
		{"degraded large all open", degraded, large, allOpen, []string{greedy},
			map[string]string{local: engine.SkipBreaker, exact: engine.SkipDegraded}},
	}
	for _, tc := range cases {
		searchers, skips := QOHEnsemble(tc.d, tc.n, 3, tc.allow)
		var got []string
		for _, sr := range searchers {
			got = append(got, sr.Name)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: members %v, want %v", tc.name, got, tc.want)
		}
		gotSkips := map[string]string{}
		for _, sk := range skips {
			gotSkips[sk.Name] = sk.Reason
		}
		if !reflect.DeepEqual(gotSkips, tc.wantSkips) {
			t.Errorf("%s: skips %v, want %v", tc.name, gotSkips, tc.wantSkips)
		}
	}
}

func TestEnsembleOutOfRangeFallback(t *testing.T) {
	// An exact-only decision past every exact cap must still serve an
	// ensemble: the greedy tier steps in, with out_of_range records.
	d := Decision{Class: ClassAdversarial, Tiers: []Tier{TierExact}}
	optimizers, skips := Ensemble(d, 30, 1, nil)
	if len(optimizers) == 0 {
		t.Fatal("empty ensemble for out-of-range exact-only decision")
	}
	sawRange := false
	for _, sk := range skips {
		if sk.Reason == engine.SkipOutOfRange {
			sawRange = true
		}
	}
	if !sawRange {
		t.Fatalf("no out_of_range skip recorded: %v", skips)
	}
}

// TestFeaturesRelabelInvariant is the satellite property test: 200
// random relabelings per instance leave the feature vector — and hence
// the routing decision — bit-identical.
func TestFeaturesRelabelInvariant(t *testing.T) {
	shapes := []string{"skewed-star", "chain-selective", "sparse-em", "cliquered-yes", "cliquered-no", "chain", "star", "clique", "random"}
	rng := rand.New(rand.NewSource(42))
	for _, shape := range shapes {
		in := familyInstance(t, shape, 10, 5)
		base := Extract(in)
		baseD := Route(base)
		for trial := 0; trial < 200; trial++ {
			pi := rng.Perm(in.N())
			rel := qon.Relabel(in, pi)
			got := Extract(rel)
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("%s trial %d: features changed under relabeling %v:\n got %+v\nwant %+v", shape, trial, pi, got, base)
			}
			if d := Route(got); !reflect.DeepEqual(d, baseD) {
				t.Fatalf("%s trial %d: decision changed under relabeling", shape, trial)
			}
		}
	}
}

// TestEnsembleDeterministic: for a fixed seed the materialized ensemble
// (by name, in order) is identical across calls.
func TestEnsembleDeterministic(t *testing.T) {
	in := familyInstance(t, "sparse-em", 12, 9)
	d := Route(Extract(in))
	a := ensembleNames(d, 12, 11)
	b := ensembleNames(d, 12, 11)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("ensemble not deterministic: %v vs %v", a, b)
	}
}

func ensembleNames(d Decision, n int, seed int64) []string {
	optimizers, _ := Ensemble(d, n, seed, nil)
	names := make([]string, len(optimizers))
	for i, o := range optimizers {
		names[i] = o.Name()
	}
	return names
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestTopologyFeatures(t *testing.T) {
	cases := []struct {
		shape workload.Shape
		check func(Features) bool
		desc  string
	}{
		{workload.Chain, func(f Features) bool { return f.IsChain && !f.IsStar && !f.IsCycle && !f.IsClique }, "chain"},
		{workload.Star, func(f Features) bool { return f.IsStar && !f.IsChain }, "star"},
		{workload.Cycle, func(f Features) bool { return f.IsCycle && !f.IsChain }, "cycle"},
		{workload.Clique, func(f Features) bool { return f.IsClique && f.Density == 1 }, "clique"},
	}
	for _, tc := range cases {
		in, err := workload.Generate(workload.Params{N: 9, Shape: tc.shape, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if f := Extract(in); !tc.check(f) {
			t.Errorf("%s: predicate failed: %+v", tc.desc, f)
		}
	}
}
