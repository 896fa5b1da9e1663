package approxqo

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"testing"

	"approxqo/internal/classify"
	"approxqo/internal/cluster"
	"approxqo/internal/cluster/replica"
	"approxqo/internal/num"
	"approxqo/internal/opt"
	"approxqo/internal/qon"
	"approxqo/internal/server"
	"approxqo/internal/server/loadgen"
	"approxqo/internal/workload"
)

// Regression benchmarks: the fixed set scripts/benchdiff compares
// against the checked-in baselines — BenchmarkRegOpt* vs BENCH_opt.json,
// everything else vs BENCH_qon.json (>20% ns/op or allocs regression
// fails extended verify). Keep the set small and single-size
// — benchdiff runs them over 3 passes of -benchtime 300x -count 5 and
// takes the minimum, so each iteration must be stable and quick.

func regInstance(b *testing.B, n int) *qon.Instance {
	b.Helper()
	in, err := workload.Generate(workload.Params{N: n, Shape: workload.Random, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkRegSubsetDP pins the serial exact DP at n=10.
func BenchmarkRegSubsetDP(b *testing.B) {
	in := regInstance(b, 10)
	dp := opt.NewDP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dp.Optimize(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegDPParallel pins the layered parallel DP at n=10.
func BenchmarkRegDPParallel(b *testing.B) {
	in := regInstance(b, 10)
	dp := opt.NewDPParallel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dp.Optimize(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegGreedy pins the min-cost greedy heuristic at n=16.
func BenchmarkRegGreedy(b *testing.B) {
	in := regInstance(b, 16)
	g := opt.NewGreedy(opt.GreedyMinCost)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Optimize(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegKBZ pins the KBZ rank algorithm at n=16 (a cyclic
// graph, so each op also builds the spanning tree).
func BenchmarkRegKBZ(b *testing.B) {
	in := regInstance(b, 16)
	k := opt.NewKBZ()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Optimize(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegGreedyTierCliquered pins the greedy tier (min-size,
// min-cost, kbz) on the cliquered-yes family at n=14: the f_N costs tie
// everywhere, so most comparisons fall inside the guard band and take
// the exact fallback.
func BenchmarkRegGreedyTierCliquered(b *testing.B) {
	in, err := (&workload.Spec{Shape: string(workload.CliqueredYes), N: 14}).Generate()
	if err != nil {
		b.Fatal(err)
	}
	tier := []opt.Optimizer{opt.NewGreedy(opt.GreedyMinSize), opt.NewGreedy(opt.GreedyMinCost), opt.NewKBZ()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range tier {
			if _, err := o.Optimize(ctx, in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRegCostEval pins one full QO_N cost evaluation at n=32.
func BenchmarkRegCostEval(b *testing.B) {
	in := regInstance(b, 32)
	z := make(qon.Sequence, in.N())
	for i := range z {
		z[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Evaluate(z)
	}
}

// The BenchmarkRegOpt* set below pins the tiered cost kernel itself and
// is compared against BENCH_opt.json (scripts/benchdiff partitions the
// regression set by the RegOpt prefix).

// BenchmarkRegOptAnnealMoves pins annealing at n=16 with a fixed
// 2000-move budget: each op is exactly 2000 moves through the Tier-1/
// Tier-2 kernel, so per-op ratios are per-move ratios.
func BenchmarkRegOptAnnealMoves(b *testing.B) {
	in := regInstance(b, 16)
	a := opt.NewAnnealing(opt.WithSeed(1), opt.WithIterations(2000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Optimize(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegOptScratchMulAdd pins the pooled mutable accumulator on
// the DP inner-loop op pattern; BenchmarkRegOptImmutableMulAdd is the
// same chain through immutable num.Num values, kept side by side so the
// baseline file documents the scratch-vs-immutable gap.
func BenchmarkRegOptScratchMulAdd(b *testing.B) {
	x, y := num.Pow2(100), num.FromInt64(12345)
	s := num.NewScratch()
	defer s.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SetInt64(1)
		for k := 0; k < 64; k++ {
			s.MulAdd(x, y)
		}
	}
}

// BenchmarkRegOptScratchMulAddSpilled is the same chain past 128 bits:
// x·y needs 175 mantissa bits, so every MulAdd takes the spilled
// big.Float path, which must stay allocation-free too (each operation
// writes into a free temporary, never over one of its operands).
func BenchmarkRegOptScratchMulAddSpilled(b *testing.B) {
	x, y := num.FromInt64(3).Pow(60), num.FromInt64(3).Pow(50)
	s := num.NewScratch()
	defer s.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SetInt64(1)
		for k := 0; k < 64; k++ {
			s.MulAdd(x, y)
		}
	}
}

func BenchmarkRegOptImmutableMulAdd(b *testing.B) {
	x, y := num.Pow2(100), num.FromInt64(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := num.FromInt64(1)
		for k := 0; k < 64; k++ {
			acc = num.MulAdd(x, y, acc)
		}
	}
}

// The canonical-identity benchmarks below also pin into BENCH_opt.json
// (benchdiff routes the RegFingerprint/RegBatch prefixes there): they
// gate the cost the batch API adds on top of the cost kernel.

// BenchmarkRegFingerprint pins canonicalization at n=16: each op
// fingerprints one star, one chain and one clique instance — the star
// and chain finish in the first refinement rounds, the clique is the
// densest search the workload generator can produce.
func BenchmarkRegFingerprint(b *testing.B) {
	shapes := []workload.Shape{workload.Star, workload.Chain, workload.Clique}
	ins := make([]*qon.Instance, len(shapes))
	for i, sh := range shapes {
		in, err := workload.Generate(workload.Params{N: 16, Shape: sh, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		ins[i] = in
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			if qon.Fingerprint(in) == "" {
				b.Fatal("empty fingerprint")
			}
		}
	}
}

// BenchmarkRegFingerprintSymmetric pins canonicalization where the
// search, not refinement, does the work: each op fingerprints one
// cliquered-yes n=13 and one cliquered-no n=16 instance — the f_N
// reduction's uniform cliques, whose automorphism groups are large, so
// the search tree is wide and automorphism pruning decides its size.
// cliquered-no n=16 is the slowest instance of the serving families.
func BenchmarkRegFingerprintSymmetric(b *testing.B) {
	var ins []*qon.Instance
	for _, sp := range []workload.Spec{
		{Shape: string(workload.CliqueredYes), N: 13, Seed: 1},
		{Shape: string(workload.CliqueredNo), N: 16, Seed: 1},
	} {
		in, err := sp.Generate()
		if err != nil {
			b.Fatal(err)
		}
		ins = append(ins, in)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			if qon.Fingerprint(in) == "" {
				b.Fatal("empty fingerprint")
			}
		}
	}
}

// BenchmarkRegClassify pins the adaptive router's per-request cost at
// n=16: each op extracts features and routes one star, one chain and
// one clique instance. The classifier sits on the serving hot path of
// every routed request, so its budget is a sliver of a request's —
// microseconds against the engine's milliseconds (see
// internal/classify's DESIGN entry). Pinned into BENCH_opt.json via the
// RegClassify benchdiff prefix.
func BenchmarkRegClassify(b *testing.B) {
	shapes := []workload.Shape{workload.Star, workload.Chain, workload.Clique}
	ins := make([]*qon.Instance, len(shapes))
	for i, sh := range shapes {
		in, err := workload.Generate(workload.Params{N: 16, Shape: sh, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		ins[i] = in
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			d := classify.Route(classify.Extract(in))
			if len(d.Tiers) == 0 {
				b.Fatal("empty routing decision")
			}
		}
	}
}

// BenchmarkRegBatchDedup pins steady-state batch throughput: one op is
// a 16-job POST /optimize/batch with planted relabeled duplicates,
// served end to end (decode, canonicalize, group, cache hit, remap,
// encode). The cache is warmed before the timer, so per-op cost is the
// dedup machinery itself, not the engine.
func BenchmarkRegBatchDedup(b *testing.B) {
	s, err := server.New(server.Config{MaxConcurrent: 4, DegradeAt: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	jobs, _, err := loadgen.PlantedBatch(9, 16)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(&server.BatchRequest{Jobs: jobs})
	if err != nil {
		b.Fatal(err)
	}
	serve := func() {
		req := httptest.NewRequest(http.MethodPost, "/optimize/batch", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("batch status %d: %s", w.Code, w.Body.Bytes())
		}
	}
	serve() // warm the certified-result cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// The BenchmarkRegServe* set pins the serving hot path itself (routing
// prefix RegServe → BENCH_serve.json): one op is one HTTP request
// served end to end through the real handler. RegServeHit and
// RegServeBatch are steady-state paths (warmed certified-result cache),
// RegServeMiss is the full-rung engine path with the cache disabled —
// together they gate decode, canonicalize, cache, remap and encode, not
// just the kernels underneath.

func regServeBody(b *testing.B, n int) []byte {
	b.Helper()
	in, err := workload.Generate(workload.Params{N: n, Shape: workload.Random, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"job": map[string]any{"instance": in}})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func regServeOnce(b *testing.B, h http.Handler, path string, body []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("%s status %d: %s", path, w.Code, w.Body.Bytes())
	}
}

// BenchmarkRegServeHit pins the byte-identical replay: the body that
// warmed the certified-result cache, POSTed to /optimize again, so
// each op is admission, a SHA-256 of the body, the byte-identity index
// lookup, remap and encode — no decode, no canonical identity.
func BenchmarkRegServeHit(b *testing.B) {
	s, err := server.New(server.Config{MaxConcurrent: 4, DegradeAt: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	body := regServeBody(b, 12)
	regServeOnce(b, h, "/optimize", body) // warm the certified-result cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regServeOnce(b, h, "/optimize", body)
	}
}

// regServeRelabelings returns eight relabelings of regServeBody's
// instance at n=12, none of them the identity labeling, with their
// /optimize bodies.
func regServeRelabelings(b *testing.B) ([]*qon.Instance, [][]byte) {
	b.Helper()
	in, err := workload.Generate(workload.Params{N: 12, Shape: workload.Random, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var ins []*qon.Instance
	var bodies [][]byte
	for len(bodies) < 8 {
		perm := rng.Perm(in.N())
		if sort.IntsAreSorted(perm) {
			continue // the identity labeling is the warm-up body
		}
		relabeled := qon.Relabel(in, perm)
		body, err := json.Marshal(map[string]any{"job": map[string]any{"instance": relabeled}})
		if err != nil {
			b.Fatal(err)
		}
		ins = append(ins, relabeled)
		bodies = append(bodies, body)
	}
	return ins, bodies
}

// BenchmarkRegServeHitRelabeled pins the relabeled cache hit: eight
// pre-encoded relabelings of the warmed n=12 instance, cycled, and
// never the warm-up body itself, so every op is admission, decode,
// relabel identity, relabel-index hit, remap and encode — the path a
// relabeled duplicate takes, which the byte-identity index cannot
// serve. RegServeDecode, RegServeRelabelID, RegServeRemap and
// RegServeEncode time those stages alone.
func BenchmarkRegServeHitRelabeled(b *testing.B) {
	s, err := server.New(server.Config{MaxConcurrent: 4, DegradeAt: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	regServeOnce(b, h, "/optimize", regServeBody(b, 12)) // warm the certified-result cache
	_, bodies := regServeRelabelings(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regServeOnce(b, h, "/optimize", bodies[i%len(bodies)])
	}
}

// BenchmarkRegServeCanon pins the canonical-identity stage of a
// relabeled cache hit on its own: qon.CanonicalID on the eight
// relabelings RegServeHitRelabeled serves, cycled.
func BenchmarkRegServeCanon(b *testing.B) {
	ins, _ := regServeRelabelings(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fp, _ := qon.CanonicalID(ins[i%len(ins)]); fp == "" {
			b.Fatal("empty fingerprint")
		}
	}
}

// BenchmarkRegServeRelabelID pins the relabel-identity stage of a
// relabeled cache hit on its own: qon.RelabelID on the eight
// relabelings RegServeHitRelabeled serves, cycled, as the server
// decodes them (a decoded value whose mantissa fits 128 bits is
// dyadic). Every one refines to a discrete partition.
func BenchmarkRegServeRelabelID(b *testing.B) {
	_, bodies := regServeRelabelings(b)
	ins := make([]*qon.Instance, len(bodies))
	for i, body := range bodies {
		req, err := server.DecodeRequest(body)
		if err != nil {
			b.Fatal(err)
		}
		ins[i] = req.Instance
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := qon.RelabelID(ins[i%len(ins)]); !ok {
			b.Fatal("relabeling did not refine discretely")
		}
	}
}

// BenchmarkRegServeRemap pins the remap stage of a cache hit on its
// own: server.RemapHit of the report the warmed n=12 instance was
// answered with into the labels of each of the eight relabelings
// RegServeHitRelabeled serves, cycled.
func BenchmarkRegServeRemap(b *testing.B) {
	s, err := server.New(server.Config{MaxConcurrent: 4, DegradeAt: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(regServeBody(b, 12))))
	var res server.Result
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil || res.Report == nil || res.Report.Best == nil {
		b.Fatalf("warm-up request failed (err %v): %s", err, w.Body.Bytes())
	}
	ins, _ := regServeRelabelings(b)
	perms := make([][]int, len(ins))
	for i, in := range ins {
		_, perms[i] = qon.CanonicalID(in)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if server.RemapHit(res.Report, perms[i%len(perms)]).Best == nil {
			b.Fatal("remap lost the winner")
		}
	}
}

// discardResponse is an http.ResponseWriter that keeps headers and
// drops the body.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// BenchmarkRegServeEncode pins the encode stage of a cache hit on its
// own: server.WriteJSON of the Result document a relabeled hit on the
// warmed n=12 instance is answered with, into a discarding writer.
func BenchmarkRegServeEncode(b *testing.B) {
	s, err := server.New(server.Config{MaxConcurrent: 4, DegradeAt: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	regServeOnce(b, h, "/optimize", regServeBody(b, 12)) // warm the certified-result cache
	_, bodies := regServeRelabelings(b)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(bodies[0])))
	var res server.Result
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil || !res.Cached {
		b.Fatalf("relabeled request was not a cache hit (err %v): %s", err, w.Body.Bytes())
	}
	// The decoded document must encode to the served bytes, so the
	// benchmark times the document the hit path writes.
	check := httptest.NewRecorder()
	server.WriteJSON(check, http.StatusOK, &res)
	if !bytes.Equal(check.Body.Bytes(), w.Body.Bytes()) {
		b.Fatalf("re-encoded hit document differs from the served one:\n%s\n%s", check.Body.Bytes(), w.Body.Bytes())
	}
	out := &discardResponse{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		server.WriteJSON(out, http.StatusOK, &res)
	}
}

// BenchmarkRegServeDecode pins the decode stage of a relabeled cache
// hit on its own: DecodeRequest on pre-encoded relabeled bodies of a
// random n=12 and a random n=16 instance, alternating — the one-pass
// instance scan, the num parser and validation, without the HTTP
// layer or canonical labeling around it.
func BenchmarkRegServeDecode(b *testing.B) {
	var bodies [][]byte
	for _, n := range []int{12, 16} {
		in := regInstance(b, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for k := 0; k < 4; k++ {
			body, err := json.Marshal(map[string]any{"job": map[string]any{"instance": qon.Relabel(in, rng.Perm(n))}})
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.DecodeRequest(bodies[i%len(bodies)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegServeMiss pins the cache-miss full-rung serve: caching is
// disabled, so every op runs the complete n=6 ensemble and renders the
// report — the cold-path cost a first-seen instance pays.
func BenchmarkRegServeMiss(b *testing.B) {
	s, err := server.New(server.Config{MaxConcurrent: 4, DegradeAt: 64, Seed: 1, CacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	body := regServeBody(b, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regServeOnce(b, h, "/optimize", body)
	}
}

// BenchmarkRegServeBatch pins the batch dedup serve on the RegServe
// gate: one op is a 16-job planted batch (relabeled duplicates) served
// from the warmed cache — the leader remap plus 15 mate remaps and the
// batch document encode.
func BenchmarkRegServeBatch(b *testing.B) {
	s, err := server.New(server.Config{MaxConcurrent: 4, DegradeAt: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	jobs, _, err := loadgen.PlantedBatch(9, 16)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(&server.BatchRequest{Jobs: jobs})
	if err != nil {
		b.Fatal(err)
	}
	regServeOnce(b, h, "/optimize/batch", body) // warm the certified-result cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regServeOnce(b, h, "/optimize/batch", body)
	}
}

// BenchmarkRegRingRoute pins the coordinator's per-request routing
// cost: one consistent-hash Lookup (primary + 2 replicas) over a
// 64-worker ring, with distinct fingerprint-shaped keys so the binary
// search and distinct-owner walk see realistic spread.
func BenchmarkRegRingRoute(b *testing.B) {
	workers := make([]string, 64)
	for i := range workers {
		workers[i] = "http://worker-" + strconv.Itoa(i) + ":8080"
	}
	ring := cluster.NewRing(workers, 0)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = "qon:fp-" + strconv.Itoa(i*2654435761)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ring.Lookup(keys[i%len(keys)], 3); len(got) != 3 {
			b.Fatalf("lookup returned %d workers, want 3", len(got))
		}
	}
}

// BenchmarkRegReplicaDigest pins the anti-entropy fingerprint cost: one
// digest pass of a 512-key cache over 64 vnode arcs — the per-round
// work a worker's /cache/digest endpoint does for the repair loop, and
// the reason repair stays cheap enough to price like a retry.
func BenchmarkRegReplicaDigest(b *testing.B) {
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = "qon:" + strconv.FormatUint(uint64(i)*2654435761, 16)
	}
	ranges := make([]replica.Range, 64)
	step := uint64(1) << 58 // 64 equal arcs covering the circle
	for i := range ranges {
		lo := uint64(i) * step
		ranges[i] = replica.Range{Lo: lo, Hi: lo + step}
	}
	ranges[len(ranges)-1].Hi = 0 // wrap: the last arc closes the circle
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := replica.DigestRanges(keys, ranges)
		if len(ds) != len(ranges) {
			b.Fatalf("digested %d arcs, want %d", len(ds), len(ranges))
		}
	}
}
