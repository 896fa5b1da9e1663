package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func ringWorkers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://worker-%d:8080", i)
	}
	return out
}

func TestRingLookupIsDeterministicAndDistinct(t *testing.T) {
	r := NewRing(ringWorkers(8), 0)
	for _, key := range []string{"qon:fp-a", "qon:fp-b", "qoh:fp-c", ""} {
		first := r.Lookup(key, 0)
		if len(first) != 8 {
			t.Fatalf("Lookup(%q, 0) returned %d workers, want all 8", key, len(first))
		}
		seen := map[string]bool{}
		for _, w := range first {
			if seen[w] {
				t.Fatalf("Lookup(%q) repeated worker %s", key, w)
			}
			seen[w] = true
		}
		for trial := 0; trial < 3; trial++ {
			again := r.Lookup(key, 0)
			for i := range first {
				if again[i] != first[i] {
					t.Fatalf("Lookup(%q) not deterministic at position %d: %s vs %s", key, i, first[i], again[i])
				}
			}
		}
	}
	if got := r.Lookup("qon:fp-a", 3); len(got) != 3 {
		t.Errorf("Lookup(_, 3) returned %d workers, want 3", len(got))
	}
}

// Property test of consistent hashing across two memberships that
// differ by one worker: every key whose owner is in both memberships
// keeps its owner, and only the dropped worker's keys move.
func TestRingMembershipChangeMovesOnlyAffectedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		all := ringWorkers(3 + rng.Intn(6))
		removed := all[rng.Intn(len(all))]
		var rest []string
		for _, w := range all {
			if w != removed {
				rest = append(rest, w)
			}
		}
		full, less := NewRing(all, 0), NewRing(rest, 0)
		moved := 0
		for k := 0; k < 2000; k++ {
			key := fmt.Sprintf("qon:key-%d-%d", trial, k)
			before, after := full.Lookup(key, 1)[0], less.Lookup(key, 1)[0]
			if after == removed {
				t.Fatalf("trial %d: key %q routes to the removed worker", trial, key)
			}
			if before == removed {
				moved++
				continue // had to move
			}
			if after != before {
				t.Fatalf("trial %d: key %q owned by surviving worker %s moved to %s", trial, key, before, after)
			}
		}
		if moved == 0 {
			t.Fatalf("trial %d: no key was owned by %s among %d workers", trial, removed, len(all))
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(ringWorkers(8), 0)
	counts := map[string]int{}
	const keys = 8000
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("qon:fp-%d", i), 1)[0]]++
	}
	for w, n := range counts {
		// 64 vnodes keeps shards within a loose 2x band of the mean.
		if n < keys/8/2 || n > keys/8*2 {
			t.Errorf("worker %s owns %d of %d keys (mean %d): ring is unbalanced", w, n, keys, keys/8)
		}
	}
}

// An empty ring routes nowhere; a repeated worker is one member.
func TestRingEmptyAndIdempotent(t *testing.T) {
	if got := NewRing(nil, 4).Lookup("k", 1); got != nil {
		t.Errorf("empty ring Lookup = %v, want nil", got)
	}
	r := NewRing([]string{"http://w:1", "http://w:1"}, 4)
	if r.Size() != 1 {
		t.Errorf("duplicate worker yields size %d, want 1", r.Size())
	}
	if got := r.Lookup("k", 0); len(got) != 1 || got[0] != "http://w:1" {
		t.Errorf("single-member Lookup = %v, want [http://w:1]", got)
	}
	if got := len(r.OwnedRanges(0)); got != 4 {
		t.Errorf("single-member ring has %d arcs, want 4 (one per vnode)", got)
	}
}
