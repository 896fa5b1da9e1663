package qon_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"approxqo/internal/qon"
	"approxqo/internal/workload"
)

// TestCanonicalIDConcurrent drives the pooled canonical-labeling and
// relabel-identity state from 8 goroutines at once, over every
// workload family at n 2–16, and requires each (fingerprint, π) and
// each (σ, digest, ok) to equal a serial run's. The results of the
// serial run are kept as returned and re-read at the end: a result
// that changed after later calls would alias pooled memory. Run it
// under -race.
func TestCanonicalIDConcurrent(t *testing.T) {
	type result struct {
		fp        string
		pi, sigma []int
		digest    [32]byte
		ok        bool
	}
	id := func(in *qon.Instance) result {
		var r result
		r.fp, r.pi = qon.CanonicalID(in)
		r.sigma, r.digest, r.ok = qon.RelabelID(in)
		return r
	}
	var ins []*qon.Instance
	for _, fam := range workload.Families() {
		for _, n := range []int{2, 3, 5, 8, 12, 16} {
			spec := workload.Spec{Shape: string(fam), N: n, Seed: int64(n)}
			in, err := spec.Generate()
			if err != nil {
				continue
			}
			ins = append(ins, qon.Relabel(in, rand.New(rand.NewSource(int64(n))).Perm(n)))
		}
	}
	serial := make([]result, len(ins))
	want := make([]string, len(ins))
	for i, in := range ins {
		serial[i] = id(in)
		want[i] = fmt.Sprint(serial[i])
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var first result
			for k := range ins {
				i := (k + w*len(ins)/workers) % len(ins) // each worker starts elsewhere
				r := id(ins[i])
				if got := fmt.Sprint(r); got != want[i] {
					t.Errorf("worker %d, instance %d: got %s, serial run %s", w, i, got, want[i])
				}
				if k == 0 {
					first = r
				}
			}
			i := (w * len(ins) / workers) % len(ins)
			if got := fmt.Sprint(first); got != want[i] {
				t.Errorf("worker %d: first result changed after later calls: %s, want %s", w, got, want[i])
			}
		}(w)
	}
	wg.Wait()
	for i, r := range serial {
		if got := fmt.Sprint(r); got != want[i] {
			t.Errorf("instance %d: serial result changed after later calls: %s, want %s", i, got, want[i])
		}
	}
}
