package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// POST /optimize/batch: many jobs, one request. The handler groups the
// jobs by canonical fingerprint and serves each distinct instance shape
// exactly once — the admission ladder is charged per shape, not per
// job, so a batch of k relabeled duplicates costs one in-flight slot
// and one engine run. Results fan back out in job order; each job
// carries its own result or error document, so one invalid job never
// fails the batch.

// BatchResponse is the success document of POST /optimize/batch.
type BatchResponse struct {
	// Jobs echoes the number of jobs received; Shapes is the number of
	// distinct admission groups they collapsed to (the engine-run charge
	// of the batch before caching).
	Jobs   int `json:"jobs"`
	Shapes int `json:"shapes"`
	// Results has one entry per job, in job order.
	Results []BatchJobResult `json:"results"`
}

// BatchJobResult is one job's outcome: exactly one of Result or Error
// is set.
type BatchJobResult struct {
	Index  int        `json:"index"`
	Result *Result    `json:"result,omitempty"`
	Error  *ErrorBody `json:"error,omitempty"`
}

// JobGroup is one admission group of a batch: the jobs, by index,
// that share one instance key. The worker serves a group with one
// engine run on its leader (the first member); the cluster coordinator
// routes it to one worker as one sub-batch.
type JobGroup struct {
	Key  string
	Idxs []int
}

// GroupJobs groups a batch's validated requests by Key, in order of
// first appearance; nil entries (jobs that failed validation) are
// skipped. A job whose key is empty — keyed is false, or its instance
// cannot be resolved — forms a singleton group under a synthetic key
// ("\x00" never prefixes a real key), so it runs on its own like an
// /optimize request. Keying resolves each request's canonical
// identity, so group before the requests are shared across goroutines.
func GroupJobs(reqs []*Request, keyed bool) []*JobGroup {
	groupOf := make(map[string]int)
	var groups []*JobGroup
	for i, req := range reqs {
		if req == nil {
			continue
		}
		key := ""
		if keyed {
			key = req.Key()
		}
		if key == "" {
			key = fmt.Sprintf("\x00job\x00%d", i)
		}
		if gi, ok := groupOf[key]; ok {
			groups[gi].Idxs = append(groups[gi].Idxs, i)
			continue
		}
		groupOf[key] = len(groups)
		groups = append(groups, &JobGroup{Key: key, Idxs: []int{i}})
	}
	return groups
}

// Budget is the group's deadline budget: the largest member budget,
// so the most patient caller bounds the shared run.
func (g *JobGroup) Budget(reqs []*Request, def, max time.Duration) time.Duration {
	var budget time.Duration
	for _, i := range g.Idxs {
		if b := reqs[i].ResolveBudget(def, max); b > budget {
			budget = b
		}
	}
	return budget
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	m := s.cfg.Metrics
	m.Counter(MetricBatchRequests).Inc()
	span := s.cfg.Tracer.Start(SpanBatch)
	defer span.End()
	rid := echoRequestID(w, r, span)
	if r.Method != http.MethodPost {
		m.Counter(MetricBadRequest).Inc()
		span.SetField("kind", "method_not_allowed")
		WriteErrorDoc(w, rid, http.StatusMethodNotAllowed, "method_not_allowed",
			"use POST with a JSON request body", 0)
		return
	}
	// Batch-level admission gate before the decode: when the server
	// would reject every group anyway (draining, queue full, shed rung),
	// refuse the whole batch for the price of a mutex, not a JSON parse.
	if rej := s.precheck(); rej != nil {
		span.SetField("kind", rej.kind)
		WriteErrorDoc(w, rid, rej.status, rej.kind, rej.msg, s.cfg.RetryAfter)
		return
	}

	buf, err := readBody(w, r)
	defer putBody(buf) // deferred calls run after the response is written
	if err != nil {
		m.Counter(MetricBadRequest).Inc()
		span.SetField("kind", "too_large")
		WriteErrorDoc(w, rid, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("request body exceeds %d bytes", DefaultMaxBodyBytes), 0)
		return
	}
	br, err := DecodeBatchRequest(buf.Bytes(), s.cfg.MaxBatchJobs)
	if err != nil {
		m.Counter(MetricBadRequest).Inc()
		span.SetField("kind", "bad_request")
		WriteErrorDoc(w, rid, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	n := len(br.Jobs)
	m.Counter(MetricBatchJobs).Add(int64(n))
	span.SetField("jobs", n)

	// Validate each job, then group by instance key. Canonical identity
	// (fingerprint + permutation) is resolved by GroupJobs, before any
	// goroutine shares a Request. Without an active cache (disabled,
	// chaos injection) every job runs on its own, like /optimize.
	reqs := make([]*Request, n)
	var replicaTo []string
	if s.peerAuthed(r) {
		// Same rule as /optimize: fan-out destinations are honored only
		// from authenticated cluster peers.
		replicaTo = parseReplicaTo(r.Header.Get(ReplicateToHeader))
	}
	errDocs := make([]*ErrorBody, n)
	for i, job := range br.Jobs {
		req := &Request{Job: job}
		if err := req.Validate(); err != nil {
			errDocs[i] = &ErrorBody{Kind: "bad_request", Message: err.Error(), RequestID: rid}
			continue
		}
		req.replicaTo = replicaTo
		req.canonUS, req.relabelUS = m.Histogram(MetricCanonUS), m.Histogram(MetricRelabelUS)
		if s.cacheActive() {
			req.rawKey = bodyKey(br.raw[i])
		}
		reqs[i] = req
	}
	groups := GroupJobs(reqs, s.cacheActive())
	span.SetField("shapes", len(groups))

	results := make([]*Result, n)
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *JobGroup) {
			defer wg.Done()
			s.serveBatchGroup(r.Context(), rid, g, reqs, results, errDocs)
		}(g)
	}
	wg.Wait()

	doc := &BatchResponse{Jobs: n, Shapes: len(groups), Results: make([]BatchJobResult, n)}
	for i := range doc.Results {
		doc.Results[i] = BatchJobResult{Index: i, Result: results[i], Error: errDocs[i]}
	}
	span.SetField("status", http.StatusOK)
	WriteJSON(w, http.StatusOK, doc)
}

// serveBatchGroup admits and serves one shape group: the leader (first
// member) runs through the shared serveAdmitted path, and every other
// member receives the leader's report remapped into its own label
// space — members of one group are relabelings of the same instance,
// so a join sequence transfers through canonical space exactly.
func (s *Server) serveBatchGroup(ctx context.Context, rid string, g *JobGroup, reqs []*Request, results []*Result, errDocs []*ErrorBody) {
	m := s.cfg.Metrics
	rung, rej := s.admit()
	if rej != nil {
		m.Counter(MetricBatchRejected).Inc()
		for _, i := range g.Idxs {
			errDocs[i] = &ErrorBody{Kind: rej.kind, Message: rej.msg, RetryAfterMS: s.cfg.RetryAfter.Milliseconds(), RequestID: rid}
		}
		return
	}
	accepted := time.Now()
	defer s.release()
	m.Counter(MetricBatchShapes).Inc()

	leader := reqs[g.Idxs[0]]
	runCtx, cancel := context.WithTimeout(ctx, g.Budget(reqs, s.cfg.DefaultTimeout, s.cfg.MaxTimeout))
	defer cancel()

	out := s.serveAdmitted(runCtx, leader, rung, accepted)
	if !out.ok {
		for _, i := range g.Idxs {
			errDocs[i] = &ErrorBody{Kind: out.kind, Message: out.msg, RetryAfterMS: out.retryAfter.Milliseconds(), RequestID: rid}
		}
		return
	}
	results[g.Idxs[0]] = out.result(leader.model())
	if len(g.Idxs) == 1 {
		return
	}
	// Fan out to group mates: leader labels → canonical labels → mate
	// labels. Multi-member groups only form on a real fingerprint key,
	// so every member's canonical permutation is resolved.
	_, leaderPerm, _ := leader.CanonicalID()
	canonical := remap(out.rep, leaderPerm)
	for _, i := range g.Idxs[1:] {
		req := reqs[i]
		_, perm, _ := req.CanonicalID()
		mate := out.result(req.model())
		mate.Cached = true
		mate.QueueMS = 0
		mate.Report = remap(canonical, invertPerm(perm))
		results[i] = mate
	}
}
