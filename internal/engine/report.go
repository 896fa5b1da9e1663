package engine

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"approxqo/internal/certify"
	"approxqo/internal/num"
	"approxqo/internal/stats"
)

// BestRecord is the winning plan of an ensemble run.
type BestRecord struct {
	// Winner is the Name of the optimizer that produced the plan.
	Winner string `json:"winner"`
	// Sequence is the join order (for QO_H runs, the sequence of the
	// winning plan).
	Sequence []int `json:"sequence"`
	// Breaks holds the pipeline boundaries of a QO_H plan; empty for
	// QO_N runs.
	Breaks []int `json:"breaks,omitempty"`
	// Cost is the exact plan cost (arbitrary magnitude, serialized as a
	// string); CostLog2 is its float64 log₂ for human consumption.
	Cost     num.Num `json:"cost"`
	CostLog2 float64 `json:"cost_log2"`
	// Exact reports whether the cost is certified optimal.
	Exact bool `json:"exact"`
	// Certified reports that the plan passed the independent audit
	// (always true for a merged winner: uncertified results cannot win).
	Certified bool `json:"certified"`
}

// RunRecord is the per-optimizer account of one ensemble run: outcome,
// wall time, certification verdict and instrumentation counters.
// Exactly one of Cost/Err is meaningful unless the run was abandoned
// with no result.
type RunRecord struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	// SpanID links the record to its optimizer span in the trace
	// exported by engine.WithTracer; zero when tracing was off.
	SpanID uint64 `json:"span_id,omitempty"`
	// Stats are the cost-model counters observed for this run: cost
	// evaluations, DP subsets expanded, local-search moves.
	Stats stats.Snapshot `json:"stats"`

	Cost     *num.Num `json:"cost,omitempty"`
	CostLog2 float64  `json:"cost_log2,omitempty"`
	Exact    bool     `json:"exact,omitempty"`

	// Certified reports that the run's result passed the independent
	// audit; only certified results participate in the merge.
	Certified bool `json:"certified,omitempty"`
	// CertError carries the auditor's rejection when the result failed
	// certification.
	CertError string `json:"cert_error,omitempty"`

	Err string `json:"error,omitempty"`
	// Panicked marks a run that crashed; PanicValue carries the
	// recovered panic value and PanicStack a short frame summary of
	// where it happened.
	Panicked   bool   `json:"panicked,omitempty"`
	PanicValue string `json:"panic_value,omitempty"`
	PanicStack string `json:"panic_stack,omitempty"`
	// TimedOut marks a run whose per-run deadline expired (the run may
	// still carry a best-so-far result if its algorithm is anytime).
	TimedOut bool `json:"timed_out,omitempty"`
	// Abandoned marks a run that failed to return within the engine's
	// grace period after cancellation; its goroutine was left behind and
	// only its counters were salvaged.
	Abandoned bool `json:"abandoned,omitempty"`
	// Quarantined marks a run benched for its own failure — a panic, a
	// failed certification or an error while its context was still
	// live — or for abandonment. It never reaches the merge.
	Quarantined bool `json:"quarantined,omitempty"`
}

// Skip reasons for SkipRecord, all attached by the ensemble builder
// (classify.Ensemble). Routing and degradation come from the adaptive
// classifier and the load ladder; breaker skips from the server's
// circuit breaker; out_of_range marks an exact optimizer whose size cap
// excludes the instance; exact_in_reach marks local search left out
// because the exact member certifies the optimum within the request
// budget. None of these are failures — that is
// exactly why they are recorded separately from quarantine/abandonment,
// so soaks and metrics checks don't conflate "benched for misbehaving"
// with "deliberately not run".
const (
	SkipRouting      = "routing"
	SkipDegraded     = "degraded"
	SkipBreaker      = "breaker"
	SkipOutOfRange   = "out_of_range"
	SkipExactInReach = "exact_in_reach"
)

// SkipRecord documents an optimizer that was deliberately not run and
// why. The engine itself runs whatever it is given; callers that prune
// the ensemble (router, ladder, breaker) attach the records to the
// Report so the account of the run stays complete.
type SkipRecord struct {
	Name   string `json:"name"`
	Reason string `json:"reason"`
	Detail string `json:"detail,omitempty"`
}

// Report is the structured, JSON-serializable outcome of one ensemble
// run: the winning plan plus one RunRecord per optimizer.
type Report struct {
	// Model is "qon" or "qoh".
	Model string `json:"model"`
	// N is the relation count of the instance.
	N int `json:"n"`
	// Best is nil when every optimizer failed.
	Best *BestRecord `json:"best,omitempty"`
	Runs []RunRecord `json:"runs"`
	// Quarantined lists the optimizers benched during this run (see
	// RunRecord.Quarantined).
	Quarantined []string `json:"quarantined,omitempty"`
	// Skipped lists optimizers deliberately excluded before the run
	// (routing, load degradation, open breaker, size range) — attached
	// by the caller that pruned the ensemble, never by the engine.
	Skipped []SkipRecord `json:"skipped,omitempty"`
	WallMS  float64      `json:"wall_ms"`
	// SpanID identifies the engine.run root span when the run was
	// traced (engine.WithTracer); zero otherwise.
	SpanID uint64 `json:"span_id,omitempty"`
}

// AuditExact re-checks the report's exactness claim against its own
// runs (certify.ExactBest): an exact winner must not cost more than any
// other certified run. Trust boundaries that accept reports they did
// not produce — replica offers, the coordinator's worker relays — call
// it; the engine's own merge satisfies it by construction.
func (r *Report) AuditExact() error {
	if r.Best == nil {
		return nil
	}
	costs := make([]num.Num, 0, len(r.Runs))
	for _, run := range r.Runs {
		if run.Certified && run.Cost != nil {
			costs = append(costs, *run.Cost)
		}
	}
	return certify.ExactBest(r.Best.Cost, r.Best.Exact, costs)
}

// MaxServedN caps the instance size a report received from another
// process may claim: a larger one is corrupt or hostile, not large.
const MaxServedN = 1 << 20

// CheckServed re-proves the serving contract on a report received from
// another process — a worker's relayed result or a replica's offered
// cache entry — for an instance of n relations: a certified winner with
// a plan cost, a winning sequence that is a permutation of 0..n-1, and
// an exactness claim no other certified run refutes (AuditExact). Both
// trust boundaries call it, so the coordinator and the replicas accept
// exactly the same reports.
func (r *Report) CheckServed(n int) error {
	if r == nil || r.Best == nil {
		return errors.New("report has no winning plan")
	}
	best := r.Best
	if !best.Certified {
		return fmt.Errorf("winner %q is not certified", best.Winner)
	}
	if !best.Cost.IsValid() {
		return fmt.Errorf("winner %q carries no plan cost", best.Winner)
	}
	if n < 1 || n > MaxServedN {
		return fmt.Errorf("implausible instance size %d", n)
	}
	if len(best.Sequence) != n {
		return fmt.Errorf("winning sequence has %d relations, instance has %d", len(best.Sequence), n)
	}
	seen := make([]bool, n)
	for _, v := range best.Sequence {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("winning sequence %v is not a permutation", best.Sequence)
		}
		seen[v] = true
	}
	return r.AuditExact()
}

// WriteText renders the report as an aligned table, cheapest run first.
func (r *Report) WriteText(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "optimizer\tlog2(cost)\texact\twall\tcost evals\tdp subsets\tmoves\tnote\n")
	runs := append([]RunRecord(nil), r.Runs...)
	sort.SliceStable(runs, func(a, b int) bool {
		ra, rb := runs[a], runs[b]
		if (ra.Cost == nil) != (rb.Cost == nil) {
			return ra.Cost != nil
		}
		if ra.Cost == nil {
			return false
		}
		return ra.Cost.Less(*rb.Cost)
	})
	for _, run := range runs {
		cost, note := "-", ""
		if run.Cost != nil {
			cost = fmt.Sprintf("%.3f", run.CostLog2)
		}
		switch {
		case run.Abandoned:
			note = "abandoned (quarantined)"
		case run.Panicked:
			note = "panicked: " + run.PanicValue
		case run.CertError != "":
			note = "uncertified: " + run.CertError
		case run.TimedOut:
			note = "timed out"
		case run.Err != "":
			note = run.Err
		}
		fmt.Fprintf(tw, "%s\t%s\t%v\t%.1fms\t%d\t%d\t%d\t%s\n",
			run.Name, cost, run.Exact, run.WallMS,
			run.Stats.CostEvals, run.Stats.DPSubsets, run.Stats.Moves, note)
	}
	for _, sk := range r.Skipped {
		note := sk.Reason
		if sk.Detail != "" {
			note += ": " + sk.Detail
		}
		fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\tskipped (%s)\n", sk.Name, note)
	}
	if len(r.Quarantined) > 0 {
		fmt.Fprintf(tw, "\nquarantined\t%v\n", r.Quarantined)
	}
	if r.Best != nil {
		fmt.Fprintf(tw, "\nwinner\t%s (log2 cost %.3f, exact=%v, certified=%v)\n",
			r.Best.Winner, r.Best.CostLog2, r.Best.Exact, r.Best.Certified)
	}
	tw.Flush()
}
