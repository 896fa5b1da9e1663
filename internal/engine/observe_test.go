package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"approxqo/internal/chaos"
	"approxqo/internal/opt"
	"approxqo/internal/qon"
	"approxqo/internal/trace"
)

// spanIndex maps a snapshot by ID and groups children by parent.
func spanIndex(infos []trace.SpanInfo) (byID map[uint64]trace.SpanInfo, children map[uint64][]trace.SpanInfo) {
	byID = make(map[uint64]trace.SpanInfo, len(infos))
	children = make(map[uint64][]trace.SpanInfo)
	for _, s := range infos {
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	return byID, children
}

// The span taxonomy: engine.run → optimizer:<name> → optimize/certify,
// plus a merge phase — and the report's span IDs resolve into the
// trace.
func TestTraceSpanTaxonomy(t *testing.T) {
	in := randomInstance(7, 0.7, 11)
	tr := trace.New()
	report, err := New(WithTracer(tr), WithoutEarlyExit()).Run(context.Background(), in,
		opt.NewDP(), opt.NewGreedy(opt.GreedyMinCost))
	if err != nil {
		t.Fatal(err)
	}
	infos := tr.Snapshot()
	byID, children := spanIndex(infos)

	root, ok := byID[report.SpanID]
	if !ok || root.Name != "engine.run" {
		t.Fatalf("report.SpanID %d does not resolve to an engine.run span", report.SpanID)
	}
	if root.Fields["model"] != "qon" {
		t.Errorf("root span model = %v, want qon", root.Fields["model"])
	}
	var sawMerge bool
	optSpans := map[string]trace.SpanInfo{}
	for _, c := range children[root.ID] {
		switch c.Name {
		case "merge":
			sawMerge = true
		default:
			optSpans[c.Name] = c
		}
	}
	if !sawMerge {
		t.Error("no merge span under engine.run")
	}
	for _, rec := range report.Runs {
		s, ok := byID[rec.SpanID]
		if !ok {
			t.Fatalf("run %s span_id %d not in trace", rec.Name, rec.SpanID)
		}
		if s.Name != "optimizer:"+rec.Name || s.Parent != root.ID {
			t.Errorf("run %s span = %q parent %d, want optimizer child of root", rec.Name, s.Name, s.Parent)
		}
		if !s.Ended {
			t.Errorf("finished run %s left its span open", rec.Name)
		}
		var phases []string
		for _, phase := range children[s.ID] {
			phases = append(phases, phase.Name)
			if !phase.Ended {
				t.Errorf("run %s left its %s span open", rec.Name, phase.Name)
			}
		}
		if !reflect.DeepEqual(phases, []string{"optimize", "certify"}) {
			t.Errorf("run %s phases = %v, want [optimize certify]", rec.Name, phases)
		}
		if s.Fields["outcome"] != "certified" {
			t.Errorf("run %s outcome = %v", rec.Name, s.Fields["outcome"])
		}
	}
}

// Metric invariants over a mixed ensemble: every run is measured
// exactly once, and every run ends in exactly one outcome bucket.
func TestMetricsInvariants(t *testing.T) {
	in := randomInstance(6, 0.7, 12)
	reg := trace.NewRegistry()
	_, err := New(WithMetrics(reg), WithoutEarlyExit()).Run(context.Background(), in,
		opt.NewGreedy(opt.GreedyMinSize), panickingOptimizer{}, failingOptimizer{},
		chaos.Wrap(opt.NewGreedy(opt.GreedyMinCost), chaos.FaultWrongCost))
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	runs := s.Counters[MetricRuns]
	if runs != 4 {
		t.Fatalf("runs counter = %d, want 4", runs)
	}
	if got := s.Histograms[MetricRunWallUS].Count; got != runs {
		t.Errorf("run wall histogram count %d != runs counter %d", got, runs)
	}
	for _, name := range []string{MetricCertifyPass, MetricCertifyFail, MetricPanics, MetricErrors} {
		if got := s.Counters[name]; got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}
	outcomes := s.Counters[MetricCertifyPass] + s.Counters[MetricCertifyFail] +
		s.Counters[MetricPanics] + s.Counters[MetricErrors] + s.Counters[MetricAbandoned]
	if runs != outcomes {
		t.Errorf("runs %d != outcome buckets %d (%+v)", runs, outcomes, s.Counters)
	}
	// The panicking, failing and lying members fail under a live
	// context: each is quarantined.
	if got := s.Counters[MetricQuarantined]; got != 3 {
		t.Errorf("quarantined counter = %d, want 3", got)
	}
	if got := s.Gauges[MetricPending]; got != 0 {
		t.Errorf("pending gauge = %d after run, want 0", got)
	}
	if got := s.Histograms[MetricOptimizerCostEvals("greedy-min-size")].Count; got != 1 {
		t.Errorf("greedy cost-evals histogram count = %d, want 1", got)
	}
}

// Concurrent engine runs sharing one tracer and one registry — the
// race/soak shape the extended verify runs under -race: no span loses
// its parent and histogram totals equal counter totals afterwards.
func TestConcurrentRunsSharedObservability(t *testing.T) {
	const concurrentRuns = 6
	tr := trace.New()
	reg := trace.NewRegistry()
	e := New(WithTracer(tr), WithMetrics(reg), WithoutEarlyExit())

	var wg sync.WaitGroup
	for i := 0; i < concurrentRuns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := randomInstance(6, 0.7, int64(20+i))
			if _, err := e.Run(context.Background(), in,
				opt.NewDP(), opt.NewGreedy(opt.GreedyMinCost)); err != nil {
				t.Errorf("run %d: %v", i, err)
			}
		}()
	}
	wg.Wait()

	infos := tr.Snapshot()
	byID, _ := spanIndex(infos)
	for _, s := range infos {
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				t.Errorf("span %d (%s) lost its parent %d", s.ID, s.Name, s.Parent)
			}
		}
	}
	s := reg.Snapshot()
	wantRuns := int64(concurrentRuns * 2)
	if got := s.Counters[MetricRuns]; got != wantRuns {
		t.Errorf("runs counter = %d, want %d", got, wantRuns)
	}
	if got := s.Histograms[MetricRunWallUS].Count; got != wantRuns {
		t.Errorf("wall histogram count %d != %d", got, wantRuns)
	}
	if got := s.Counters[MetricCertifyPass]; got != wantRuns {
		t.Errorf("certify.pass = %d, want %d (all runs honest)", got, wantRuns)
	}
	if got := s.Gauges[MetricPending]; got != 0 {
		t.Errorf("pending gauge = %d, want 0", got)
	}
}

// stallingEvaluator ignores cancellation and keeps evaluating costs
// until released — the abandonment case where the engine must salvage
// instrumentation counters from a still-running optimizer.
type stallingEvaluator struct{ release chan struct{} }

func (stallingEvaluator) Name() string { return "stalling-evaluator" }

func (s stallingEvaluator) Optimize(ctx context.Context, in *qon.Instance) (*opt.Result, error) {
	seq := make(qon.Sequence, in.N())
	for i := range seq {
		seq[i] = i
	}
	for {
		select {
		case <-s.release:
			return &opt.Result{Sequence: seq, Cost: in.Cost(seq)}, nil
		default:
			in.Cost(seq) // hammer the instrumented cost model, ignoring ctx
		}
	}
}

// Regression for the torn-read audit: abandon a stalling optimizer
// while concurrently sampling the metrics registry and the trace. The
// stats sink is written by the stalled goroutine the whole time; the
// salvage in the grace path and the samplers must stay race-clean
// (run under -race in extended verify) and the aggregates consistent.
func TestAbandonStallingOptimizerWhileSamplingMetrics(t *testing.T) {
	in := randomInstance(6, 0.7, 13)
	release := make(chan struct{})
	defer close(release)
	tr := trace.New()
	reg := trace.NewRegistry()

	stop := make(chan struct{})
	var samplers sync.WaitGroup
	for i := 0; i < 3; i++ {
		samplers.Add(1)
		go func() {
			defer samplers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = reg.Snapshot()
					_ = tr.Snapshot()
				}
			}
		}()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	report, err := New(WithTracer(tr), WithMetrics(reg), WithGrace(40*time.Millisecond)).Run(ctx, in,
		stallingEvaluator{release: release}, opt.NewGreedy(opt.GreedyMinSize))
	close(stop)
	samplers.Wait()
	if err != nil {
		t.Fatal(err)
	}

	var rec *RunRecord
	for i := range report.Runs {
		if report.Runs[i].Name == "stalling-evaluator" {
			rec = &report.Runs[i]
		}
	}
	if rec == nil || !rec.Abandoned || !rec.Quarantined {
		t.Fatalf("stalling run not abandoned+quarantined: %+v", rec)
	}
	if rec.Stats.CostEvals == 0 {
		t.Error("abandonment salvaged no cost-evaluation counters")
	}
	s := reg.Snapshot()
	if got := s.Counters[MetricAbandoned]; got != 1 {
		t.Errorf("abandoned counter = %d, want 1", got)
	}
	if got := s.Counters[MetricRuns]; got != 2 {
		t.Errorf("runs counter = %d, want 2 (one finished, one abandoned)", got)
	}
	if got := s.Counters[MetricCertifyPass] + s.Counters[MetricAbandoned]; got != 2 {
		t.Errorf("certify.pass + abandoned = %d, want 2: every run ends in one outcome bucket", got)
	}
	if got := s.Histograms[MetricRunWallUS].Count; got != 2 {
		t.Errorf("wall histogram count = %d, want 2", got)
	}
	byID, _ := spanIndex(tr.Snapshot())
	span, ok := byID[rec.SpanID]
	if !ok {
		t.Fatalf("abandoned run has no span")
	}
	if span.Ended {
		t.Error("abandoned optimizer span should be left unfinished (stall visible in the timeline)")
	}
	if span.Fields["abandoned"] != true {
		t.Errorf("abandoned span fields = %v", span.Fields)
	}
}
