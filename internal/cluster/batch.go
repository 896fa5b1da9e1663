package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"approxqo/internal/server"
)

// POST /optimize/batch at the coordinator: the batch is split by
// canonical instance shape, each shape group routed to its own ring
// shard as one worker sub-batch, and the per-job results reassembled
// in job order. Affinity is per shape, not per batch — two batches
// carrying relabelings of the same query hit the same worker and dedup
// through its canonical cache. Sub-batches fail over to the next
// replica under the same retry budget as single requests; hedging is
// deliberately not applied (a duplicated sub-batch multiplies whole
// engine-run groups, not one tail request — the premium is not worth
// the tail).

func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	m := c.cfg.Metrics
	m.Counter(MetricBatchRequests).Inc()
	span := c.cfg.Tracer.Start(SpanBatch)
	defer span.End()
	rid := r.Header.Get(server.RequestIDHeader)
	if rid == "" {
		rid = c.nextRequestID()
	}
	w.Header().Set(server.RequestIDHeader, rid)
	span.SetField("request_id", rid)
	if r.Method != http.MethodPost {
		span.SetField("kind", "method_not_allowed")
		server.WriteErrorDoc(w, rid, http.StatusMethodNotAllowed, "method_not_allowed",
			"use POST with a JSON request body", 0)
		return
	}
	c.inflight.Add(1)
	m.Gauge(MetricInFlight).Add(1)
	defer func() {
		c.inflight.Add(-1)
		m.Gauge(MetricInFlight).Add(-1)
	}()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.DefaultMaxBodyBytes))
	if err != nil {
		span.SetField("kind", "too_large")
		server.WriteErrorDoc(w, rid, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("request body exceeds %d bytes", server.DefaultMaxBodyBytes), 0)
		return
	}
	br, err := server.DecodeBatchRequest(body, c.cfg.MaxBatchJobs)
	if err != nil {
		span.SetField("kind", "bad_request")
		server.WriteErrorDoc(w, rid, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	n := len(br.Jobs)
	m.Counter(MetricBatchJobs).Add(int64(n))
	span.SetField("jobs", n)

	// Validate locally and group by ring key. Invalid jobs get their
	// error document here — no upstream round trip for a job no worker
	// would accept. Jobs whose fingerprint cannot resolve form singleton
	// groups on a synthetic key: still routed deterministically, no
	// cross-batch affinity claim.
	reqs := make([]*server.Request, n)
	results := make([]*server.Result, n)
	errDocs := make([]*server.ErrorBody, n)
	for i, job := range br.Jobs {
		req := &server.Request{Job: job}
		if err := req.Validate(); err != nil {
			errDocs[i] = &server.ErrorBody{Kind: "bad_request", Message: err.Error(), RequestID: rid}
			continue
		}
		reqs[i] = req
	}
	groups := server.GroupJobs(reqs, true)
	span.SetField("shapes", len(groups))

	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *server.JobGroup) {
			defer wg.Done()
			c.dispatchGroup(r.Context(), rid, g, reqs, results, errDocs)
		}(g)
	}
	wg.Wait()

	doc := &server.BatchResponse{Jobs: n, Shapes: len(groups), Results: make([]server.BatchJobResult, n)}
	for i := range doc.Results {
		doc.Results[i] = server.BatchJobResult{Index: i, Result: results[i], Error: errDocs[i]}
	}
	span.SetField("status", http.StatusOK)
	server.WriteJSON(w, http.StatusOK, doc)
}

// dispatchGroup routes one shape group as a worker sub-batch, failing
// over down the group key's replica list under the shared retry
// budget. Outcomes land per-job in results/errDocs at the group's
// original indices.
func (c *Coordinator) dispatchGroup(ctx context.Context, rid string, g *server.JobGroup, reqs []*server.Request, results []*server.Result, errDocs []*server.ErrorBody) {
	m := c.cfg.Metrics
	m.Counter(MetricBatchShapes).Inc()
	c.budget.deposit()

	gctx, cancel := context.WithTimeout(ctx, g.Budget(reqs, c.cfg.DefaultTimeout, c.cfg.MaxTimeout))
	defer cancel()

	jobs := make([]*server.Job, len(g.Idxs))
	for k, i := range g.Idxs {
		jobs[k] = reqs[i].Job
	}
	res, _ := c.dispatch(gctx, rid, g.Key, jobs, true)
	if errors.Is(res.err, errNoWorkers) {
		c.failGroup(g, errDocs, rid, "no_workers", "cluster has no workers in the ring")
		return
	}
	if !res.terminal() {
		kind, msg := "upstream", fmt.Sprintf("upstream attempts exhausted: %v", res.err)
		if errors.Is(res.err, context.DeadlineExceeded) || gctx.Err() != nil {
			kind, msg = "deadline", "budget exhausted before a worker answered"
		}
		c.failGroup(g, errDocs, rid, kind, msg)
		return
	}
	if res.status != http.StatusOK {
		// A structured worker refusal (429 overloaded, 503 draining, …):
		// relay its document to every member.
		doc, _ := decodeWorkerError(res.body)
		for _, i := range g.Idxs {
			eb := doc.Error
			eb.RequestID = rid
			errDocs[i] = &eb
		}
		return
	}
	sub, _ := decodeWorkerBatch(res.body, len(g.Idxs))
	for k, i := range g.Idxs {
		jr := sub.Results[k]
		if jr.Error != nil {
			eb := *jr.Error
			eb.RequestID = rid
			errDocs[i] = &eb
			continue
		}
		results[i] = jr.Result
	}
}

// failGroup writes one coordinator-origin error document to every
// member of a group.
func (c *Coordinator) failGroup(g *server.JobGroup, errDocs []*server.ErrorBody, rid, kind, msg string) {
	for _, i := range g.Idxs {
		errDocs[i] = &server.ErrorBody{
			Kind: kind, Message: msg,
			RetryAfterMS: c.cfg.RetryAfter.Milliseconds(),
			RequestID:    rid,
		}
	}
}

// decodeWorkerBatch validates one worker batch 200 body: a batch
// document with exactly wantJobs entries, each carrying either a
// structured error or a result that passes the same certification and
// permutation checks as a single /optimize response.
func decodeWorkerBatch(data []byte, wantJobs int) (*server.BatchResponse, error) {
	var doc server.BatchResponse
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("undecodable batch document: %w", err)
	}
	if len(doc.Results) != wantJobs {
		return nil, fmt.Errorf("batch document has %d results, want %d", len(doc.Results), wantJobs)
	}
	for k, jr := range doc.Results {
		switch {
		case jr.Result != nil && jr.Error != nil:
			return nil, fmt.Errorf("job %d carries both a result and an error", k)
		case jr.Error != nil:
			if jr.Error.Kind == "" {
				return nil, fmt.Errorf("job %d error document without a kind", k)
			}
		case jr.Result != nil:
			if err := jr.Result.Report.CheckServed(jr.Result.N); err != nil {
				return nil, fmt.Errorf("job %d: %w", k, err)
			}
		default:
			return nil, fmt.Errorf("job %d carries neither a result nor an error", k)
		}
	}
	return &doc, nil
}
