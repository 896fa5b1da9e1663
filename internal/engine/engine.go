// Package engine is a supervised ensemble runner for the repo's query
// optimizers. It executes any set of opt.Optimizer values (or QO_H plan
// searchers — see RunQOH) concurrently over one instance, with:
//
//   - context cancellation threaded into every run,
//   - an optional per-run deadline on top of the caller's context,
//   - early termination of the remaining runs once an exact
//     (certified-optimal) result arrives,
//   - panic isolation — a crashing optimizer becomes a RunRecord
//     carrying the recovered panic value and a stack summary, never a
//     crashed process,
//   - a mandatory certification gate — every result is audited by the
//     independent certify package (permutation bijection, exact-
//     arithmetic cost recomputation, exactness cross-check) before it
//     may enter the merge,
//   - one attempt per optimizer — every optimizer is deterministic for
//     its seed, so a rerun would only repeat a failure,
//   - quarantine — a run that panics, fails certification or errors
//     while its own context is still live is benched and recorded in
//     the Report (a failure after the context ended may be the
//     cancellation's doing and is not),
//   - a grace period after cancellation, after which unresponsive runs
//     are abandoned and quarantined (their goroutines drain into a
//     buffered channel; their counters are still snapshotted safely),
//   - a cheapest-wins merge over certified results only; on a cost
//     tie an exact result beats a heuristic one, then the member
//     listed earlier in the ensemble wins — never the first arrival.
//
// Every run gets a fresh Stats sink attached to the instance, so the
// cost model itself counts evaluations whether or not the optimizer
// cooperates; the counts come back in a structured, JSON-serializable
// Report.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"approxqo/internal/certify"
	"approxqo/internal/num"
	"approxqo/internal/opt"
	"approxqo/internal/qon"
	"approxqo/internal/stats"
	"approxqo/internal/trace"
)

// DefaultGrace is how long the engine waits, after the governing
// context ends, for runs to deliver their best-so-far results before
// abandoning them.
const DefaultGrace = 250 * time.Millisecond

// The engine's structured error taxonomy. Errors returned by Run and
// RunQOH, and the per-run errors folded into the all-failed error, wrap
// these sentinels so callers can classify failures with errors.Is.
var (
	// ErrNoOptimizers is returned when Run is called with an empty
	// ensemble.
	ErrNoOptimizers = errors.New("engine: no optimizers registered")
	// ErrNilInstance is returned when Run is called with a nil
	// instance.
	ErrNilInstance = errors.New("engine: nil instance")
	// ErrUncertified marks a result the certification gate rejected;
	// it always wraps the certify package's classification
	// (ErrInvalidPlan, ErrCostMismatch, ErrBoundViolated).
	ErrUncertified = errors.New("engine: result failed certification")
	// ErrQuarantined marks a run benched for its own failure (panic,
	// failed certification, error under a live context) or for
	// abandonment; it never reaches the merge.
	ErrQuarantined = errors.New("engine: optimizer quarantined")
	// ErrAllFailed is returned when no optimizer produced a certified
	// result.
	ErrAllFailed = errors.New("engine: every optimizer failed")
)

// ErrInvalidPlan is the certify package's structural-violation
// sentinel, re-exported so engine callers can classify certification
// failures without importing certify.
var ErrInvalidPlan = certify.ErrInvalidPlan

// Metric names published into a WithMetrics registry. The counters and
// histograms obey two invariants the soak tests assert: MetricRuns
// equals the observation count of MetricRunWallUS (every run — finished
// or abandoned — is measured exactly once), and MetricRuns equals
// MetricCertifyPass + MetricCertifyFail + MetricPanics + MetricErrors +
// MetricAbandoned (every run ends in exactly one of those outcomes).
const (
	MetricRuns        = "engine.runs"           // counter: runs accounted (incl. abandoned)
	MetricCertifyPass = "engine.certify.pass"   // counter: results the audit accepted
	MetricCertifyFail = "engine.certify.fail"   // counter: results the audit rejected
	MetricPanics      = "engine.panics"         // counter: runs that panicked
	MetricErrors      = "engine.errors"         // counter: runs that returned an error
	MetricQuarantined = "engine.quarantined"    // counter: optimizers benched
	MetricAbandoned   = "engine.abandoned"      // counter: runs abandoned past the grace window
	MetricTimeouts    = "engine.timeouts"       // counter: runs whose per-run deadline expired
	MetricPending     = "engine.pending"        // gauge: runs not yet accounted (queue depth)
	MetricRunWallUS   = "engine.run.wall_us"    // histogram: per-run wall time (µs)
	MetricMergeSize   = "engine.merge.arrivals" // histogram: certified arrivals per engine run

	// Cost-kernel tier split (see DESIGN.md § Cost-kernel tiers): how
	// much work the float64 fast path absorbed versus exact arithmetic,
	// and how often the guard band forced an exact re-decision.
	MetricCostFastPath  = "cost.fast_path"   // counter: float64 log₂ evaluations
	MetricCostExactPath = "cost.exact_path"  // counter: exact num.Num evaluations
	MetricCostFallbacks = "cost.fallbacks"   // counter: guard-band exact fallbacks
	MetricScratchGets   = "num.scratch.gets" // gauge: pooled scratch checkouts (process-wide)
	MetricScratchNews   = "num.scratch.news" // gauge: pool misses that allocated (process-wide)
)

// MetricOptimizerWallUS names the per-optimizer wall-time histogram.
func MetricOptimizerWallUS(name string) string { return "opt." + name + ".wall_us" }

// MetricOptimizerCostEvals names the per-optimizer cost-evaluation
// histogram (one observation per run, of the run's total count).
func MetricOptimizerCostEvals(name string) string { return "opt." + name + ".cost_evals" }

// Engine supervises ensemble runs. The zero value is usable: no
// per-run deadline, DefaultGrace, early exit enabled.
type Engine struct {
	runTimeout time.Duration
	grace      time.Duration
	noEarly    bool

	tracer  *trace.Tracer
	metrics *trace.Registry

	healthMu sync.Mutex
	health   Health
}

// Health is a cheap probe of the engine's run history, for serving
// layers that need a readiness signal or a circuit-breaker input
// without parsing full Reports. It is maintained across Run/RunQOH
// calls and safe to read concurrently with in-flight runs.
type Health struct {
	// Runs counts completed ensemble runs (successful or not).
	Runs int64 `json:"runs"`
	// Failed counts runs that produced no certified winner.
	Failed int64 `json:"failed"`
	// LastOK reports whether the most recent run produced a certified
	// winner (false before any run).
	LastOK bool `json:"last_ok"`
	// Quarantined is the number of optimizers benched in the most
	// recent run.
	Quarantined int `json:"quarantined"`
	// ErrKinds are the distinct failure kinds of the most recent run's
	// failed optimizers, in record order: "panic", "abandoned",
	// "uncertified", "timeout" or "error".
	ErrKinds []string `json:"err_kinds,omitempty"`
}

// Health returns a snapshot of the engine's run history. It is a few
// atomic loads under a mutex — cheap enough for a /readyz handler or a
// per-request breaker check.
func (e *Engine) Health() Health {
	e.healthMu.Lock()
	defer e.healthMu.Unlock()
	h := e.health
	h.ErrKinds = append([]string(nil), e.health.ErrKinds...)
	return h
}

// errKind classifies one failed run record for the health probe.
func errKind(rec *RunRecord) string {
	switch {
	case rec.Abandoned:
		return "abandoned"
	case rec.Panicked:
		return "panic"
	case rec.CertError != "":
		return "uncertified"
	case rec.TimedOut && !rec.Certified:
		return "timeout"
	default:
		return "error"
	}
}

// recordHealth folds one completed run into the health probe.
func (e *Engine) recordHealth(records []RunRecord, ok bool) {
	var kinds []string
	var quarantined int
	for i := range records {
		rec := &records[i]
		if rec.Quarantined {
			quarantined++
		}
		if rec.Err == "" {
			continue
		}
		kind := errKind(rec)
		seen := false
		for _, k := range kinds {
			if k == kind {
				seen = true
				break
			}
		}
		if !seen {
			kinds = append(kinds, kind)
		}
	}
	e.healthMu.Lock()
	defer e.healthMu.Unlock()
	e.health.Runs++
	if !ok {
		e.health.Failed++
	}
	e.health.LastOK = ok
	e.health.Quarantined = quarantined
	e.health.ErrKinds = kinds
}

// Option configures an Engine.
type Option func(*Engine)

// WithRunTimeout puts a deadline on each optimizer run, layered under
// the caller's context (whichever ends first wins). Zero means no
// per-run deadline.
func WithRunTimeout(d time.Duration) Option { return func(e *Engine) { e.runTimeout = d } }

// WithGrace sets how long the engine waits for best-so-far results
// after cancellation before abandoning stragglers (default
// DefaultGrace).
func WithGrace(d time.Duration) Option { return func(e *Engine) { e.grace = d } }

// WithoutEarlyExit keeps all runs going even after an exact result
// arrives — useful when the point is the per-optimizer comparison, not
// the answer.
func WithoutEarlyExit() Option { return func(e *Engine) { e.noEarly = true } }

// WithTracer records hierarchical spans for every run into t: the
// engine run, each optimizer (one trace track each) with its
// optimize/certify phases, and the final merge. Abandoned runs
// leave their spans unfinished, which the exporter marks explicitly —
// a stalled optimizer is visible as an open span in the timeline. A
// nil tracer disables tracing (the default).
func WithTracer(t *trace.Tracer) Option { return func(e *Engine) { e.tracer = t } }

// WithMetrics aggregates every run into r: outcome, quarantine and
// abandonment counters, an engine.pending queue-depth gauge,
// and per-optimizer wall-time and cost-evaluation histograms (see the
// Metric* constants). The per-run stats sinks remain attached to each
// instance; the supervisor alone absorbs their snapshots into the
// registry at run completion or abandonment, so the registry is the
// single synchronized aggregation point. A nil registry disables
// metrics (the default).
func WithMetrics(r *trace.Registry) Option { return func(e *Engine) { e.metrics = r } }

// New builds an Engine.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, apply := range opts {
		apply(e)
	}
	return e
}

// jobResult is the model-independent slice of an optimizer's result
// that the supervisor needs for auditing, merging and reporting.
type jobResult struct {
	seq    []int
	breaks []int
	cost   num.Num
	exact  bool
}

// job is one supervised unit of work.
type job struct {
	name string
	// run executes with the per-run context; the instance it closes
	// over already carries a fresh stats sink.
	run func(ctx context.Context) (*jobResult, error)
	// audit is the certification gate: a non-nil error rejects the
	// result before it can reach the merge. It closes over the
	// original (uninstrumented) instance so the auditor's recomputation
	// never pollutes the run's counters.
	audit func(*jobResult) error
	// sink is snapshotted into the RunRecord even when run never
	// returns (abandonment) — it is written with atomics only.
	sink *stats.Stats
}

// Run executes the optimizers concurrently over in, audits every
// result through the certification gate, and merges the surviving
// results cheapest-first. It returns a Report whenever the ensemble is
// non-empty; the error is non-nil only when no optimizer produced a
// certified result (all failed, panicked, were quarantined, or were
// abandoned resultless). The Report is returned alongside the error so
// failed runs can still be inspected.
func (e *Engine) Run(ctx context.Context, in *qon.Instance, optimizers ...opt.Optimizer) (*Report, error) {
	if in == nil {
		return nil, ErrNilInstance
	}
	if len(optimizers) == 0 {
		return nil, ErrNoOptimizers
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: context done before any run started: %w", err)
	}
	jobs := make([]job, len(optimizers))
	sinks := make([]stats.Stats, len(optimizers))
	for i, o := range optimizers {
		sink := &sinks[i]
		instrumented := in.WithStats(sink)
		j := &jobs[i]
		j.name = o.Name()
		j.sink = sink
		j.run = func(ctx context.Context) (*jobResult, error) {
			r, err := o.Optimize(ctx, instrumented)
			if err != nil || r == nil {
				if err == nil {
					err = errors.New("optimizer returned no result")
				}
				return nil, err
			}
			return &jobResult{seq: []int(r.Sequence), cost: r.Cost, exact: r.Exact}, nil
		}
		j.audit = func(r *jobResult) error {
			_, err := certify.QON(in, r.seq, r.cost, r.exact)
			return err
		}
	}
	report, best := e.supervise(ctx, "qon", jobs)
	report.Model = "qon"
	report.N = in.N()
	report.Best = best
	if best == nil {
		return report, fmt.Errorf("%w: %s", ErrAllFailed, firstFailure(report.Runs))
	}
	return report, nil
}

// outcome is what a run goroutine delivers back to the supervisor.
type outcome struct {
	idx         int
	res         *jobResult
	err         error
	panicked    bool
	panicValue  string
	panicStack  string
	timedOut    bool
	certified   bool
	quarantined bool
	certErr     string
	dur         time.Duration
}

// runOnce executes j once under ctx — optimize, then the certification
// gate — recording both phases under span. A panic in either phase is
// recovered into the outcome with its value and a stack summary, never
// a crashed process. A run that fails while ctx is still live is
// quarantined: the failure is the optimizer's own, and rerunning a
// deterministic optimizer would only repeat it. A failure after ctx
// ended may be the cancellation's doing and is not.
func runOnce(ctx context.Context, j *job, span *trace.Span) (oc outcome) {
	phase := span.Child("optimize")
	defer func() {
		if p := recover(); p != nil {
			phase.End()
			oc = outcome{panicked: true, panicValue: fmt.Sprintf("%v", p), panicStack: stackSummary(debug.Stack())}
			oc.err = fmt.Errorf("panic: %s", oc.panicValue)
			span.SetField("outcome", "panic")
		}
		if oc.err != nil && ctx.Err() == nil {
			oc.quarantined = true
			oc.err = fmt.Errorf("%w: %v", ErrQuarantined, oc.err)
		}
	}()
	res, err := j.run(ctx)
	phase.End()
	if err != nil {
		span.SetField("outcome", "error")
		return outcome{err: err}
	}
	phase = span.Child("certify")
	aerr := j.audit(res)
	phase.SetField("pass", aerr == nil)
	phase.End()
	if aerr != nil {
		span.SetField("outcome", "uncertified")
		return outcome{certErr: aerr.Error(), err: fmt.Errorf("%w: %v", ErrUncertified, aerr)}
	}
	span.SetField("outcome", "certified")
	return outcome{res: res, certified: true}
}

// stackSummary compresses a debug.Stack dump taken in a deferred
// recover to the first few non-runtime frames below the panic call
// ("func (file:line)"), enough to locate a panic in a report without
// shipping the whole trace.
func stackSummary(stack []byte) string {
	lines := strings.Split(string(stack), "\n")
	// Everything above the panic( frame is the recover machinery.
	start := 0
	for i, line := range lines {
		if strings.HasPrefix(line, "panic(") {
			start = i + 2
			break
		}
	}
	var frames []string
	for i := start; i+1 < len(lines) && len(frames) < 4; i++ {
		fn := strings.TrimSpace(lines[i])
		loc := strings.TrimSpace(lines[i+1])
		// A frame is a "pkg.Func(...)" line followed by a tab-indented
		// "file.go:N +0x..." line.
		if fn == "" || !strings.Contains(fn, "(") || !strings.Contains(loc, ".go:") {
			continue
		}
		i++
		if strings.HasPrefix(fn, "runtime") {
			continue
		}
		name := fn
		if cut := strings.LastIndex(name, "("); cut > 0 {
			name = name[:cut]
		}
		file := loc
		if cut := strings.LastIndex(file, " +0x"); cut > 0 {
			file = file[:cut]
		}
		if cut := strings.LastIndex(file, "/"); cut >= 0 {
			file = file[cut+1:]
		}
		frames = append(frames, name+" ("+file+")")
	}
	return strings.Join(frames, " <- ")
}

// arrival is one certified result, kept for the final merge.
type arrival struct {
	idx int
	res *jobResult
}

// supervise runs each job once, concurrently — with certification and
// quarantine handling (see runOnce) — and collects them into records,
// merging the cheapest certified result (ties go to exactness, then
// ensemble position — see mergeBeats). When the engine carries a
// tracer it records the span taxonomy documented in DESIGN.md
// (engine.run → optimizer:<name> → optimize/certify, then merge); when
// it carries a metrics registry, the supervisor — and only the
// supervisor — absorbs each run's stats snapshot and outcome into it,
// so aggregate reads never race the optimizer goroutines.
func (e *Engine) supervise(ctx context.Context, model string, jobs []job) (*Report, *BestRecord) {
	started := time.Now()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	rootSpan := e.tracer.Start("engine.run")
	rootSpan.SetField("model", model)
	rootSpan.SetField("optimizers", len(jobs))
	e.metrics.Gauge(MetricPending).Add(int64(len(jobs)))

	// Per-optimizer spans are opened by the supervisor (not the run
	// goroutines) so abandoned runs still have a span to report in the
	// record; the goroutine only adds children to it.
	optSpans := make([]*trace.Span, len(jobs))
	for i := range jobs {
		optSpans[i] = rootSpan.ChildTrack("optimizer:"+jobs[i].name, i+1)
	}

	// Buffered so abandoned goroutines can deliver late and exit
	// instead of leaking blocked forever.
	results := make(chan outcome, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		go func() {
			start := time.Now()
			var oc outcome
			// The pprof label makes CPU/heap profile samples attributable
			// per optimizer (`go tool pprof`, tags view).
			trace.Do(runCtx, "optimizer", j.name, func(lctx context.Context) {
				jctx := lctx
				if e.runTimeout > 0 {
					var jcancel context.CancelFunc
					jctx, jcancel = context.WithTimeout(lctx, e.runTimeout)
					defer jcancel()
				}
				oc = runOnce(jctx, j, optSpans[i])
				// A deadline that expired marks the run timed out even when an
				// anytime algorithm still salvaged a best-so-far result.
				oc.timedOut = errors.Is(jctx.Err(), context.DeadlineExceeded) && ctx.Err() == nil
			})
			oc.idx, oc.dur = i, time.Since(start)
			results <- oc
		}()
	}

	report := &Report{Runs: make([]RunRecord, len(jobs))}
	records := report.Runs
	finished := make([]bool, len(jobs))
	for i := range jobs {
		records[i].Name = jobs[i].name
	}
	var arrivals []arrival
	grace := e.grace
	if grace <= 0 {
		grace = DefaultGrace
	}
	done := runCtx.Done()
	var graceC <-chan time.Time
	pending := len(jobs)
	// publish absorbs one accounted run into the metrics registry. It is
	// called only from this (supervising) goroutine — the registry is the
	// single synchronized sink for aggregates, so a concurrent metrics
	// reader can never observe a half-published run racing an optimizer.
	publish := func(rec *RunRecord) {
		m := e.metrics
		if m == nil {
			return
		}
		m.Counter(MetricRuns).Inc()
		m.Gauge(MetricPending).Add(-1)
		wallUS := int64(rec.WallMS * 1000)
		m.Histogram(MetricRunWallUS).Observe(wallUS)
		m.Histogram(MetricOptimizerWallUS(rec.Name)).Observe(wallUS)
		m.Histogram(MetricOptimizerCostEvals(rec.Name)).Observe(rec.Stats.CostEvals)
		m.Counter(MetricCostFastPath).Add(rec.Stats.FastEvals)
		m.Counter(MetricCostExactPath).Add(rec.Stats.CostEvals)
		m.Counter(MetricCostFallbacks).Add(rec.Stats.Fallbacks)
		if rec.Quarantined {
			m.Counter(MetricQuarantined).Inc()
		}
		switch {
		case rec.Abandoned:
			m.Counter(MetricAbandoned).Inc()
		case rec.Certified:
			m.Counter(MetricCertifyPass).Inc()
		case rec.Panicked:
			m.Counter(MetricPanics).Inc()
		case rec.CertError != "":
			m.Counter(MetricCertifyFail).Inc()
		default:
			m.Counter(MetricErrors).Inc()
		}
		if rec.TimedOut {
			m.Counter(MetricTimeouts).Inc()
		}
	}

	for pending > 0 {
		select {
		case oc := <-results:
			pending--
			finished[oc.idx] = true
			rec := &records[oc.idx]
			rec.SpanID = optSpans[oc.idx].ID()
			rec.WallMS = float64(oc.dur.Microseconds()) / 1000
			rec.Stats = jobs[oc.idx].sink.Snapshot()
			rec.Panicked = oc.panicked
			rec.PanicValue = oc.panicValue
			rec.PanicStack = oc.panicStack
			rec.TimedOut = oc.timedOut
			rec.Certified = oc.certified
			rec.Quarantined = oc.quarantined
			rec.CertError = oc.certErr
			if oc.err != nil {
				rec.Err = oc.err.Error()
			}
			optSpans[oc.idx].SetField("certified", oc.certified)
			optSpans[oc.idx].End()
			publish(rec)
			if oc.certified {
				cost := oc.res.cost
				rec.Cost = &cost
				rec.CostLog2 = cost.Log2()
				rec.Exact = oc.res.exact
				arrivals = append(arrivals, arrival{idx: oc.idx, res: oc.res})
				if oc.res.exact && !e.noEarly {
					cancel() // remaining runs can only tie at best
				}
			}
		case <-done:
			// Context over (caller cancellation, deadline, or early exit):
			// give cooperative runs a grace window to deliver best-so-far.
			done = nil
			t := time.NewTimer(grace)
			defer t.Stop()
			graceC = t.C
		case <-graceC:
			// Whatever is still running is abandoned: salvage counters
			// (atomics stay coherent mid-run), record the abandonment and
			// bench the optimizer — a component that ignores cancellation
			// is quarantined like one that fails certification. The
			// optimizer's span is left open on purpose: the exporter marks
			// it unfinished, so the stall is visible in the timeline.
			for i := range jobs {
				if finished[i] {
					continue
				}
				rec := &records[i]
				rec.SpanID = optSpans[i].ID()
				rec.WallMS = float64(time.Since(started).Microseconds()) / 1000
				rec.Stats = jobs[i].sink.Snapshot()
				rec.Abandoned = true
				rec.Quarantined = true
				rec.Err = ErrQuarantined.Error() + ": no result within the cancellation grace period"
				optSpans[i].SetField("abandoned", true)
				publish(rec)
			}
			pending = 0
		}
	}

	// Final merge over the certified arrivals.
	mergeSpan := rootSpan.Child("merge")
	mergeSpan.SetField("arrivals", len(arrivals))
	var best *BestRecord
	var win arrival
	for _, a := range arrivals {
		if best == nil || mergeBeats(a, win) {
			best, win = e.bestRecord(jobs, a.idx, a.res), a
		}
	}
	mergeSpan.End()
	e.metrics.Histogram(MetricMergeSize).Observe(int64(len(arrivals)))
	gets, news := num.ScratchPoolStats()
	e.metrics.Gauge(MetricScratchGets).Set(gets)
	e.metrics.Gauge(MetricScratchNews).Set(news)
	report.WallMS = float64(time.Since(started).Microseconds()) / 1000
	report.SpanID = rootSpan.ID()
	for _, rec := range records {
		if rec.Quarantined {
			report.Quarantined = append(report.Quarantined, rec.Name)
		}
	}
	if best != nil {
		rootSpan.SetField("winner", best.Winner)
	}
	rootSpan.SetField("quarantined", len(report.Quarantined))
	rootSpan.End()
	e.recordHealth(records, best != nil)
	return report, best
}

// mergeBeats orders certified arrivals for the final merge: cheaper
// first; on an equal cost an exact result beats a heuristic one (it is
// strictly more informative), and between equally exact results the
// member listed earlier in the ensemble wins. Arrival order never
// decides, so the winner is a function of the results alone.
func mergeBeats(a, b arrival) bool {
	if !a.res.cost.Equal(b.res.cost) {
		return a.res.cost.Less(b.res.cost)
	}
	if a.res.exact != b.res.exact {
		return a.res.exact
	}
	return a.idx < b.idx
}

// bestRecord builds the winning-plan record for a certified result.
func (e *Engine) bestRecord(jobs []job, idx int, res *jobResult) *BestRecord {
	return &BestRecord{
		Winner:    jobs[idx].name,
		Sequence:  res.seq,
		Breaks:    res.breaks,
		Cost:      res.cost,
		CostLog2:  res.cost.Log2(),
		Exact:     res.exact,
		Certified: true,
	}
}

// firstFailure summarizes the first failed run for the all-failed error.
func firstFailure(runs []RunRecord) string {
	for _, r := range runs {
		if r.Err != "" {
			return r.Name + ": " + r.Err
		}
	}
	return "no runs"
}
