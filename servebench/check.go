package main

import (
	"fmt"
	"net/http"
	"sync"
)

// verdict is the check of one timed window against the oracle.
type verdict struct {
	attempted, failed int
	optimal           int // served cost equals the oracle optimum
	falseExact        int // exact:true with a cost above the optimum
	firstFailure      string
}

// outcome is the check of one record.
type outcome struct {
	fail       string // empty when the response passed
	optimal    bool
	falseExact bool
	belowBound bool // cost below the oracle: the oracle is wrong
}

// check validates every record of a window. A request fails when its
// status is not 200, its result is degraded or not at the full rung or
// not certified, its sequence is not a permutation of the instance sent,
// or the sent instance's own cost of that sequence differs from the
// served cost. A served cost above the oracle optimum is not a failure
// (the first-exact early exit lets a restricted optimum win a race); it
// counts against optimal_share instead. A cost below the optimum means
// the oracle is wrong, and aborts the run.
func check(w *workloadDef, recs []record) (*verdict, []outcome, error) {
	outs := make([]outcome, len(recs))
	var wg sync.WaitGroup
	const workers = 2
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := k; j < len(recs); j += workers {
				outs[j] = checkOne(w, &recs[j])
			}
		}(k)
	}
	wg.Wait()
	v := &verdict{attempted: len(recs)}
	for j, o := range outs {
		r := &recs[j]
		if o.belowBound {
			inst := w.insts[int(r.idx)]
			return nil, nil, fmt.Errorf("served cost below the oracle optimum on %s n=%d (request %d): the oracle is wrong",
				inst.family, inst.n, r.i)
		}
		if o.fail != "" {
			v.failed++
			if v.firstFailure == "" {
				v.firstFailure = fmt.Sprintf("request %d: %s", r.i, o.fail)
			}
			continue
		}
		if o.optimal {
			v.optimal++
		}
		if o.falseExact {
			v.falseExact++
		}
	}
	return v, outs, nil
}

func checkOne(w *workloadDef, r *record) outcome {
	switch {
	case r.status != http.StatusOK:
		return outcome{fail: fmt.Sprintf("status %d %s", r.status, r.errText)}
	case r.errText != "":
		return outcome{fail: r.errText}
	case !r.full:
		return outcome{fail: "not served at the full rung, or degraded"}
	case !r.hasBest:
		return outcome{fail: "no best plan"}
	case !r.certified:
		return outcome{fail: "certified:false"}
	}
	i, idx := int(r.i), int(r.idx)
	sent := w.sentInstance(i, idx)
	seq := r.sequence()
	if seq == nil || !sent.ValidSequence(seq) {
		return outcome{fail: fmt.Sprintf("the served sequence is not a permutation of the %d relations sent", sent.N())}
	}
	// The served cost's JSON text is the canonical form of its value
	// (num.Num marshals equal values to equal text), so comparing text
	// hashes compares the values.
	cost := sent.Cost(seq)
	text, err := cost.MarshalJSON()
	if err != nil {
		return outcome{fail: err.Error()}
	}
	if fnv64(string(text[1:len(text)-1])) != r.costHash {
		return outcome{fail: fmt.Sprintf("served cost differs from its sequence's cost 2^%.6f on the instance sent", cost.Log2())}
	}
	switch c := cost.Cmp(w.insts[idx].optimum); {
	case c < 0:
		return outcome{belowBound: true}
	case c == 0:
		return outcome{optimal: true}
	default:
		return outcome{falseExact: r.exact}
	}
}
