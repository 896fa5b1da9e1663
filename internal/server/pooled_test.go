package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"approxqo/internal/qon"
	"approxqo/internal/workload"
)

// optimizeBody marshals an inline-instance /optimize request for a
// generated workload, the same shape the RegServe benchmarks use.
func optimizeBody(t *testing.T, n int, seed int64) []byte {
	t.Helper()
	in, err := workload.Generate(workload.Params{N: n, Shape: workload.Random, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"job": map[string]any{"instance": in}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func serveOptimize(h http.Handler, body []byte) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return w, fmt.Errorf("/optimize status %d: %s", w.Code, w.Body.Bytes())
	}
	return w, nil
}

// relabeledBodies encodes k relabelings of the generated instance
// optimizeBody(t, n, seed) sends, none of them the identity labeling,
// so each one is a canonical hit once that body is cached.
func relabeledBodies(t *testing.T, n int, seed int64, k int) [][]byte {
	t.Helper()
	in, err := workload.Generate(workload.Params{N: n, Shape: workload.Random, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	bodies := make([][]byte, 0, k)
	for len(bodies) < k {
		perm := rng.Perm(n)
		if sort.IntsAreSorted(perm) {
			continue
		}
		body, err := json.Marshal(map[string]any{"job": map[string]any{"instance": qon.Relabel(in, perm)}})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// TestServeHitAllocBudget pins the allocation budgets of the two
// cache-hit serve paths on a warmed n=12 instance. A byte-identical
// replay is served from the byte-identity index — no decode, no
// canonical labeling — and measures 38 allocs. A relabeled duplicate
// decodes and is served by the relabel index, and measures 82 (the
// pooled path took a hit from ~4,215 to ~1,240; dropping the
// per-request re-marshal of the decoded instance took it to 891; the
// one-pass instance decoder and the slab-allocated canonical labeling
// to 187; the single-pass body read to 170; the pooled canonizer and
// codec to 86; the relabel index, which skips the canonical search, to
// 82). Both include the remap's two allocations: the report shell with
// its BestRecord, and the sequence. Each budget is the -race measurement plus about 25%: the
// race detector's sync.Pool drops a quarter of all Puts, and a dropped
// encoder costs a dozen allocations, so the replay measures 63–84 and
// the relabeled path 218–249 there. Anything above means the index
// stopped serving replays, the body or encoder pool stopped being
// used, the decoder fell back to encoding/json or the dyadic fast path
// stopped firing.
// benchdiff (BENCH_serve.json) gates the same numbers at 20%; this
// test is the in-`go test` tripwire that does not need a pinned
// baseline file.
func TestServeHitAllocBudget(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 4, DegradeAt: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := optimizeBody(t, 12, 11)
	if _, err := serveOptimize(h, body); err != nil {
		t.Fatal(err) // warm the certified-result cache
	}
	relabeled := relabeledBodies(t, 12, 11, 8)
	for _, tc := range []struct {
		name   string
		bodies [][]byte
		budget float64
	}{
		{"replay", [][]byte{body}, 100},
		{"relabeled", relabeled, 310},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var failed atomic.Int64
			i := 0
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := serveOptimize(h, tc.bodies[i%len(tc.bodies)]); err != nil {
					failed.Add(1)
				}
				i++
			})
			if n := failed.Load(); n > 0 {
				t.Fatalf("%d cache-hit requests failed", n)
			}
			if allocs > tc.budget {
				t.Fatalf("%s hit serve allocated %.0f objects/request, budget %.0f", tc.name, allocs, tc.budget)
			}
			t.Logf("%s hit serve: %.0f allocs/request (budget %.0f)", tc.name, allocs, tc.budget)
		})
	}
}

// TestPooledServeNoBleed hammers the serve path with concurrent
// requests over distinct instances and asserts every response carries
// its own request's identity. The pinned failure mode is cross-request
// bleed: a pooled request body or encoder buffer handed to another
// request while the first still reads it, or a cached report mutated
// by the remap that serves it, so client A reads client B's plan.
// Sizes differ across the working set, so a bled report is caught by
// the n/fingerprint/sequence-length checks even before the cost
// comparison. Run under -race this also checks that cache hits only
// read the shared cached report.
func TestPooledServeNoBleed(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 4, QueueDepth: 256, DegradeAt: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// Working set of distinct shapes and sizes: repeats hit the cache
	// (remapped from the stored report), first-seen run the engine.
	type want struct {
		body        []byte
		n           int
		fingerprint string
		cost        string
		sequence    []int
	}
	ws := make([]*want, 6)
	for i := range ws {
		n := 7 + i
		w := &want{body: optimizeBody(t, n, int64(31+i)), n: n}
		rec, err := serveOptimize(h, w.body)
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if res.Report == nil || res.Report.Best == nil || res.Fingerprint == "" {
			t.Fatalf("warm response missing report/fingerprint: %s", rec.Body.Bytes())
		}
		w.fingerprint = res.Fingerprint
		w.cost = res.Report.Best.Cost.String()
		w.sequence = append([]int(nil), res.Report.Best.Sequence...)
		ws[i] = w
	}

	const (
		workers = 8
		iters   = 120
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				w := ws[(g*iters+i)%len(ws)]
				rec, err := serveOptimize(h, w.body)
				if err != nil {
					errs <- err
					return
				}
				var res Result
				if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
					errs <- fmt.Errorf("worker %d: undecodable response: %v", g, err)
					return
				}
				if res.N != w.n || res.Fingerprint != w.fingerprint {
					errs <- fmt.Errorf("worker %d: got n=%d fp=%q, want n=%d fp=%q — pooled report bled across requests",
						g, res.N, res.Fingerprint, w.n, w.fingerprint)
					return
				}
				best := res.Report.Best
				if best == nil || len(best.Sequence) != w.n {
					errs <- fmt.Errorf("worker %d: n=%d response carries sequence %v", g, w.n, best)
					return
				}
				if got := best.Cost.String(); got != w.cost {
					errs <- fmt.Errorf("worker %d: n=%d cost %s, want %s", g, w.n, got, w.cost)
					return
				}
				seen := make([]bool, w.n)
				for _, v := range best.Sequence {
					if v < 0 || v >= w.n || seen[v] {
						errs <- fmt.Errorf("worker %d: sequence %v is not a permutation of 0..%d", g, best.Sequence, w.n-1)
						return
					}
					seen[v] = true
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
