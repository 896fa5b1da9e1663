package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"approxqo/internal/certify"
	"approxqo/internal/classify"
	"approxqo/internal/server"
	"approxqo/internal/trace"
)

// tracerPair is the observability wiring handed to server.Config; the
// zero value leaves both off.
type tracerPair struct {
	tr  *trace.Tracer
	reg *trace.Registry
}

// replayHits is how many hit responses per client a traced run keeps
// for the replays (every miss response is kept).
const replayHits = 1024

// ensembleOptimizers are the optimizers whose wall time and win share
// the traced run reports.
var ensembleOptimizers = []string{
	"subset-dp", "subset-dp-no-cross", "subset-dp-parallel",
	"exhaustive", "iterative-improvement", "annealing",
}

// sample is one kept response with the replay timings of its body.
type sample struct {
	rec               *record
	res               server.Result
	cliquered         bool
	decode, canon     time.Duration
	classify, certify time.Duration
	encode            time.Duration
	decodeAllocs      uint64
}

// tracedRun measures the window twice — untraced, then with a tracer
// and metrics registry wired through server.Config and a span around
// every client call — replays each layer's public functions on the
// bodies the traced pass sent, writes the spans to
// .bench_build/servebench-trace-<workload>.json (Chrome trace_event
// JSON) and reports the per-layer metrics.
func (s *session) tracedRun(d time.Duration) (*result, error) {
	ls, _, err := s.setUp(tracerPair{})
	if err != nil {
		return nil, err
	}
	plain, err := s.timeWindow(ls, d, tracerPair{})
	if err != nil {
		return nil, err
	}
	v0, _, err := check(s.w, plain.recs)
	if err != nil {
		return nil, err
	}

	tp := tracerPair{tr: trace.New(), reg: trace.NewRegistry()}
	ls, _, err = s.setUp(tp)
	if err != nil {
		return nil, err
	}
	before := tp.reg.Snapshot()
	win, err := s.timeWindow(ls, d, tp)
	if err != nil {
		return nil, err
	}
	after := tp.reg.Snapshot()
	v, outs, err := check(s.w, win.recs)
	if err != nil {
		return nil, err
	}
	samples, err := s.replay(tp.tr, win.recs)
	if err != nil {
		return nil, err
	}

	res := newResult(v0, v)
	plainOps := float64(v0.attempted-v0.failed) / plain.elapsed.Seconds()
	tracedOps := float64(v.attempted-v.failed) / win.elapsed.Seconds()
	s.perLayer(res, win.recs, outs, v, samples, before, after)
	res.add("trace.untraced_ops_per_s", plainOps, "req/s")
	res.add("trace.traced_ops_per_s", tracedOps, "req/s")
	res.add("trace.ops_ratio", tracedOps/plainOps, "ratio")

	printSelfTimes(tp.tr)
	traceOut := filepath.Join(".bench_build", "servebench-trace-"+s.w.name+".json")
	if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
		return nil, err
	}
	if err := tp.tr.WriteFile(traceOut); err != nil {
		return nil, err
	}
	logf("spans written to %s", traceOut)
	return res, nil
}

// replay times each layer's public functions single-threaded, on an
// idle process, on the body of every kept response: the request decode,
// canonical identity, the router's feature extraction and routing, the
// auditor on the served plan, and the JSON encoding of the received
// result. Each call gets its own span under a bench.replay span.
func (s *session) replay(tr *trace.Tracer, recs []record) ([]sample, error) {
	var sc relabelScratch
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ") // as the server encodes its responses
	// The allocation counter read itself, so decode.allocs counts the
	// decoder alone.
	a0 := heapAllocs()
	calib := heapAllocs() - a0

	var out []sample
	for j := range recs {
		r := &recs[j]
		if r.resp == nil || r.status != 200 {
			continue
		}
		sm := sample{rec: r, cliquered: isCliquered(s.w.insts[int(r.idx)].family)}
		if err := json.Unmarshal(r.resp, &sm.res); err != nil {
			return nil, fmt.Errorf("decoding response %d: %w", r.i, err)
		}
		body := s.w.body(int(r.i), int(r.idx), &sc)
		root := tr.Start("bench.replay")

		sp := root.Child("bench.decode")
		a := heapAllocs()
		t := time.Now()
		req, err := server.DecodeRequest(body)
		sm.decode = time.Since(t)
		sm.decodeAllocs = heapAllocs() - a - calib
		sp.End()
		if err != nil {
			root.End()
			return nil, fmt.Errorf("replaying decode of request %d: %w", r.i, err)
		}

		sp = root.Child("bench.canon")
		t = time.Now()
		_, _, err = req.CanonicalID()
		sm.canon = time.Since(t)
		sp.End()
		if err != nil {
			root.End()
			return nil, err
		}

		sp = root.Child("bench.classify")
		t = time.Now()
		classify.Route(classify.Extract(req.Instance))
		sm.classify = time.Since(t)
		sp.End()

		if best := sm.res.Report.Best; best != nil {
			sp = root.Child("bench.certify")
			t = time.Now()
			_, err = certify.QON(req.Instance, best.Sequence, best.Cost, best.Exact)
			sm.certify = time.Since(t)
			sp.End()
			if err != nil {
				root.End()
				return nil, fmt.Errorf("served plan of request %d fails the audit: %w", r.i, err)
			}
		}

		sp = root.Child("bench.encode")
		buf.Reset()
		t = time.Now()
		err = enc.Encode(&sm.res)
		sm.encode = time.Since(t)
		sp.End()
		root.End()
		if err != nil {
			return nil, err
		}
		out = append(out, sm)
	}
	return out, nil
}

// perLayer adds every per-layer metric of the traced pass.
func (s *session) perLayer(res *result, recs []record, outs []outcome, v *verdict,
	samples []sample, before, after trace.RegistrySnapshot) {
	counter := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }

	// The HTTP layer, from the responses.
	var outside, queue []float64
	var hitLat, hitOutside []float64
	for j := range recs {
		r := &recs[j]
		if outs[j].fail != "" {
			continue
		}
		o := ms(r.lat) - r.wallMS
		outside = append(outside, o)
		queue = append(queue, r.queueMS)
		if r.cached {
			hitLat = append(hitLat, ms(r.lat))
			hitOutside = append(hitOutside, o)
		}
	}
	var encode, decode, decodeAllocs, canon, canonSym, classifyT, certifyT []float64
	var hitDecode, hitCanon, hitEncode []float64
	for _, sm := range samples {
		encode = append(encode, us(sm.encode))
		decode = append(decode, us(sm.decode))
		decodeAllocs = append(decodeAllocs, float64(sm.decodeAllocs))
		canon = append(canon, us(sm.canon))
		if sm.cliquered {
			canonSym = append(canonSym, us(sm.canon))
		}
		classifyT = append(classifyT, us(sm.classify))
		certifyT = append(certifyT, us(sm.certify))
		if sm.rec.cached {
			hitDecode = append(hitDecode, us(sm.decode))
			hitCanon = append(hitCanon, us(sm.canon))
			hitEncode = append(hitEncode, us(sm.encode))
		}
	}
	res.add("server.outside_ms", mean(outside), "ms")
	res.add("server.queue_ms", mean(queue), "ms")
	res.add("server.encode_us", mean(encode), "us")
	res.add("server.breaker_skips", float64(after.Counters[server.MetricBreakerSkips]), "count")
	res.add("decode.us", mean(decode), "us")
	res.add("decode.allocs", mean(decodeAllocs), "objects")
	res.add("canon.us", mean(canon), "us")
	res.add("canon.us.symmetric", mean(canonSym), "us")

	// The cache, from the registry and the hit responses. The hit
	// latency splits into what happens outside the server's wall_ms
	// (transport, admission, remap, encode and write) plus what the
	// decode and canonical-identity replays explain; the rest is the
	// remainder.
	hits, misses := counter(server.MetricCacheHits), counter(server.MetricCacheMisses)
	res.add("cache.hit_share", ratio(hits, hits+misses), "ratio")
	res.add("cache.raw_hit_share", ratio(hits-counter(server.MetricCanonicalHits), hits), "ratio")
	var explained, p50 float64
	if len(hitLat) > 0 && len(hitDecode) > 0 {
		p50 = median(hitLat) * 1000
		explained = median(hitOutside)*1000 + median(hitDecode) + median(hitCanon)
		logf("hit p50 %.1fus = outside %.1fus (encode %.1fus of it) + decode %.1fus + canon %.1fus + remainder %.1fus",
			p50, median(hitOutside)*1000, median(hitEncode), median(hitDecode), median(hitCanon), p50-explained)
	}
	res.add("cache.remainder_us", p50-explained, "us")
	res.add("cache.explained_share", ratio(explained, p50), "ratio")

	// The router, the engine and the optimizers, from the miss reports.
	res.add("classify.us", mean(classifyT), "us")
	var routed, reduced, nMiss float64
	var runs, runMS, usefulMS, engineMS, abandoned, timedOut float64
	var evals, subsets, fast float64
	optMS := map[string][]float64{}
	wins := map[string]float64{}
	for _, sm := range samples {
		rep := sm.res.Report
		if sm.res.Cached || rep == nil {
			continue
		}
		nMiss++
		if d := sm.res.Routing; d != nil {
			routed++
			if d.Reduced() {
				reduced++
			}
		}
		engineMS += rep.WallMS
		runs += float64(len(rep.Runs))
		for _, run := range rep.Runs {
			runMS += run.WallMS
			optMS[run.Name] = append(optMS[run.Name], run.WallMS)
			if rep.Best != nil && run.Name == rep.Best.Winner {
				usefulMS += run.WallMS
			}
			if run.Abandoned {
				abandoned++
			}
			if run.TimedOut {
				timedOut++
			}
			evals += float64(run.Stats.CostEvals)
			subsets += float64(run.Stats.DPSubsets)
			fast += float64(run.Stats.FastEvals)
		}
		if rep.Best != nil {
			wins[rep.Best.Winner]++
		}
	}
	res.add("classify.reduced_share", ratio(reduced, routed), "ratio")
	res.add("engine.runs_per_miss", ratio(runs, nMiss), "count")
	res.add("engine.run_ms_per_miss", ratio(runMS, nMiss), "ms")
	res.add("engine.useful_share", ratio(usefulMS, runMS), "ratio")
	res.add("engine.wall_ms", ratio(engineMS, nMiss), "ms")
	res.add("engine.abandoned", abandoned, "count")
	res.add("engine.timed_out", timedOut, "count")
	for _, name := range ensembleOptimizers {
		res.add("opt."+name+".wall_ms", mean(optMS[name]), "ms")
		res.add("opt."+name+".win_share", ratio(wins[name], nMiss), "ratio")
	}
	res.add("opt.cost_evals_per_miss", ratio(evals, nMiss), "count")
	res.add("opt.dp_subsets_per_miss", ratio(subsets, nMiss), "count")
	res.add("opt.fast_evals_per_miss", ratio(fast, nMiss), "count")

	// The auditor.
	res.add("certify.us", mean(certifyT), "us")
	res.add("certify.false_exact_share", ratio(float64(v.falseExact), float64(v.attempted-v.failed)), "ratio")
}

// printSelfTimes prints, per span name, the count and the mean self
// time: a span's duration minus the part its child spans cover.
func printSelfTimes(tr *trace.Tracer) {
	spans := tr.Snapshot()
	childUS := map[uint64]float64{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			childUS[sp.Parent] += sp.DurUS
		}
	}
	type agg struct {
		n          int
		total, own float64
	}
	by := map[string]*agg{}
	for _, sp := range spans {
		a := by[sp.Name]
		if a == nil {
			a = &agg{}
			by[sp.Name] = a
		}
		a.n++
		a.total += sp.DurUS
		if own := sp.DurUS - childUS[sp.ID]; own > 0 {
			a.own += own
		}
	}
	names := make([]string, 0, len(by))
	for name := range by {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-40s %8s %14s %14s\n", "span", "count", "mean_us", "mean_self_us")
	for _, name := range names {
		a := by[name]
		fmt.Printf("%-40s %8d %14.1f %14.1f\n", name, a.n, a.total/float64(a.n), a.own/float64(a.n))
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
