// Command servebench is the end-to-end benchmark of the certified
// join-order serving path. It starts the qod handler
// (server.New(...).Handler()) in-process on a loopback listener, drives
// one workload from two closed-loop clients over two keep-alive
// connections, checks every response against an exact oracle computed
// before the timed window, and prints its metrics by name and unit, the
// last line being one JSON object.
//
//	bash servebench/run.sh --workload hit-relabeled --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the separate
// traced run: an untraced and a traced pass of the same window, replays
// of each layer's public functions on the bodies sent, and the
// per-layer metrics with span self times. README.md lists the workloads,
// the metrics and which end-to-end metric each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runDeadline bounds a whole run, set-up and oracle included; past it
// the run is cancelled, every server is shut down and the command exits
// non-zero without a result.
const runDeadline = 170 * time.Second

// setups is how many times a timed run sets up a fresh server; setup_s
// is their median and the last one serves the timed window.
const setups = 3

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "workload: hit-relabeled, miss-unique or zipf-mixed")
	seed := flag.Int64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		flag.Usage()
		return 2
	}
	// Two processors, as the two clients and two worker slots assume,
	// whatever the machine has.
	runtime.GOMAXPROCS(2)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	res, err := run(ctx, *name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("stopped by a signal or the %v run deadline: %w", runDeadline, err)
		}
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	res.print()
	return 0
}

// session is one run's shared state: the workload, and every server
// address it opened, for the leak check.
type session struct {
	ctx   context.Context
	w     *workloadDef
	seed  int64
	addrs []string
}

// run prepares the workload and the oracle, runs the timed or traced
// measurement, and verifies that no listener or goroutine of the run is
// left, on the error paths too.
func run(ctx context.Context, name string, seed int64, d time.Duration, traced bool) (res *result, err error) {
	baseline := runtime.NumGoroutine()
	t0 := time.Now()
	w, err := buildWorkload(ctx, name, seed)
	if err != nil {
		return nil, err
	}
	if err := crossCheckOracle(ctx, seed); err != nil {
		return nil, err
	}
	if err := checkRelabeling(w); err != nil {
		return nil, err
	}
	logf("%s seed %d: %d instances and their optima ready in %.1fs", name, seed, len(w.insts), time.Since(t0).Seconds())

	s := &session{ctx: ctx, w: w, seed: seed}
	defer func() {
		if lerr := leakCheck(s.addrs, baseline); lerr != nil {
			res, err = nil, errors.Join(err, lerr)
		}
	}()
	if traced {
		return s.tracedRun(d)
	}
	return s.timedRun(d)
}

// setUp starts a server and warms its cache through POST /optimize,
// returning it with the time that took. The caller closes it.
func (s *session) setUp(tp tracerPair) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	ls, err := startServer(serverConfig(s.seed, tp.tr, tp.reg))
	if err != nil {
		return nil, 0, err
	}
	s.addrs = append(s.addrs, ls.ln.Addr().String())
	if err := ls.warm(s.ctx, s.w); err != nil {
		return nil, 0, errors.Join(err, ls.close())
	}
	return ls, time.Since(t0), nil
}

// timeWindow runs one timed window on a set-up server and always closes it.
func (s *session) timeWindow(ls *liveServer, d time.Duration, tp tracerPair) (*window, error) {
	win, err := measure(s.ctx, ls, s.w, d, tp.tr)
	if cerr := ls.close(); cerr != nil {
		err = errors.Join(err, fmt.Errorf("shutting down: %w", cerr))
	}
	if err != nil {
		return nil, err
	}
	if win.exhausted {
		logf("the request sequence ran out after %.1fs; rates are over that window", win.elapsed.Seconds())
	}
	return win, nil
}

// timedRun sets up `setups` times, measures the window on the last
// server, and reports the end-to-end metrics.
func (s *session) timedRun(d time.Duration) (*result, error) {
	var times []float64
	var ls *liveServer
	for k := 0; k < setups; k++ {
		l, t, err := s.setUp(tracerPair{})
		if err != nil {
			return nil, err
		}
		times = append(times, t.Seconds())
		if k < setups-1 {
			if err := l.close(); err != nil {
				return nil, err
			}
			continue
		}
		ls = l
	}
	win, err := s.timeWindow(ls, d, tracerPair{})
	if err != nil {
		return nil, err
	}
	v, outs, err := check(s.w, win.recs)
	if err != nil {
		return nil, err
	}
	res := newResult(v)
	if err := s.endToEnd(res, win, v, outs, median(times)); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd adds the nine end-to-end metrics of a checked window. The
// rates (ops_per_s, cpu_ms_per_op, allocs_per_op) are medians over bins
// of w.bin consecutive requests, and rss_mb is the median of the
// resident-set probes, so a burst of outside load during one bin moves
// them little; the latency percentiles are over the whole window.
func (s *session) endToEnd(res *result, win *window, v *verdict, outs []outcome, setupS float64) error {
	done := v.attempted - v.failed
	if done == 0 {
		return fmt.Errorf("no request completed in the window (first failure: %s)", v.firstFailure)
	}
	lat := passedLatencies(win.recs, outs)
	p := s.w.tailPct
	beyond := len(lat) - int(math.Ceil(p/100*float64(len(lat))))
	bins := binRates(win, s.w.bin)
	logf("%d requests completed in %.2fs (%d bins of %d); tail_ms is p%g with %d samples beyond it",
		done, win.elapsed.Seconds(), len(bins.ops), s.w.bin, p, beyond)
	if beyond < 10 {
		logf("warning: fewer than 10 samples beyond p%g", p)
	}
	logf("ops_per_s over the bins: %s", quartiles(bins.ops))
	res.add("setup_s", setupS, "s")
	res.add("ops_per_s", median(bins.ops), "req/s")
	res.add("p50_ms", ms(percentile(lat, 50)), "ms")
	res.add("tail_ms", ms(percentile(lat, p)), "ms")
	res.add("cpu_ms_per_op", median(bins.cpuMS), "ms")
	res.add("allocs_per_op", median(bins.allocs), "objects")
	res.add("rss_mb", median(rssProbes(win.probes)), "MiB")
	res.add("heap_live_mb", win.heapMB, "MiB")
	res.add("optimal_share", float64(v.optimal)/float64(done), "ratio")
	return nil
}

// rates holds one value per bin.
type rates struct{ ops, cpuMS, allocs []float64 }

// binRates splits the window's requests by sequence index into bins of
// size consecutive requests and returns each complete bin's rates. Bin
// k spans from the last completion of bin k-1 (the window start for
// bin 0) to its own last completion; process counters are interpolated
// from the probes at those instants. With fewer than three complete
// bins the whole window is one bin.
func binRates(win *window, size int) rates {
	last := map[int]time.Duration{}
	count := map[int]int{}
	for j := range win.recs {
		r := &win.recs[j]
		k := int(r.i) / size
		count[k]++
		if r.done > last[k] {
			last[k] = r.done
		}
	}
	var out rates
	prev := time.Duration(0)
	for k := 0; count[k] == size; k++ {
		end := last[k]
		if span := end - prev; span > 0 {
			c0, a0 := counterAt(win.probes, prev)
			c1, a1 := counterAt(win.probes, end)
			out.ops = append(out.ops, float64(size)/span.Seconds())
			out.cpuMS = append(out.cpuMS, ms(c1-c0)/float64(size))
			out.allocs = append(out.allocs, (a1-a0)/float64(size))
		}
		prev = end
	}
	if len(out.ops) >= 3 {
		return out
	}
	n := float64(len(win.recs))
	first, final := win.probes[0], win.probes[len(win.probes)-1]
	return rates{
		ops:    []float64{n / win.elapsed.Seconds()},
		cpuMS:  []float64{ms(final.cpu-first.cpu) / n},
		allocs: []float64{float64(final.allocs-first.allocs) / n},
	}
}

// counterAt interpolates the CPU time and allocation count at t between
// the probes around it.
func counterAt(ps []probe, t time.Duration) (time.Duration, float64) {
	j := sort.Search(len(ps), func(j int) bool { return ps[j].t >= t })
	switch {
	case j == 0:
		return ps[0].cpu, float64(ps[0].allocs)
	case j == len(ps):
		p := ps[len(ps)-1]
		return p.cpu, float64(p.allocs)
	}
	a, b := ps[j-1], ps[j]
	f := float64(t-a.t) / float64(b.t-a.t)
	cpu := a.cpu + time.Duration(f*float64(b.cpu-a.cpu))
	return cpu, float64(a.allocs) + f*float64(b.allocs-a.allocs)
}

// rssProbes returns the resident-set samples among the probes.
func rssProbes(ps []probe) []float64 {
	var out []float64
	for _, p := range ps {
		if p.rssMB > 0 {
			out = append(out, p.rssMB)
		}
	}
	return out
}

// passedLatencies returns the sorted latencies of the records that
// passed the check.
func passedLatencies(recs []record, outs []outcome) []time.Duration {
	lat := make([]time.Duration, 0, len(recs))
	for j := range recs {
		if outs[j].fail == "" {
			lat = append(lat, recs[j].lat)
		}
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	return lat
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// median is the median of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles renders the minimum, quartiles and maximum of xs.
func quartiles(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(f float64) float64 { return s[int(f*float64(len(s)-1)+0.5)] }
	return fmt.Sprintf("min %.4g q1 %.4g median %.4g q3 %.4g max %.4g", q(0), q(0.25), q(0.5), q(0.75), q(1))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

func newResult(vs ...*verdict) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, v := range vs {
		res.Attempted += v.attempted
		res.Failed += v.failed
		if v.failed > 0 {
			res.Correct = false
			logf("%d of %d requests failed; first: %s", v.failed, v.attempted, v.firstFailure)
		}
	}
	return res
}

func (r *result) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

// print writes every metric as a line, then the JSON object as the last
// line of standard output.
func (r *result) print() {
	fmt.Printf("attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Printf("%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(line))
}
