package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"approxqo/internal/cluster/replica"
	"approxqo/internal/server"
)

// routeKey derives the ring key for a decoded request: the worker's
// cache key (Request.Key), so every relabeling of one query routes to
// the same shard and the ring arcs the coordinator digests match the
// keys workers store. A request whose fingerprint cannot be resolved
// (an ungenerable workload spec) falls back to a raw body hash — still
// deterministic, no affinity guarantee.
func routeKey(req *server.Request, body []byte) string {
	if key := req.Key(); key != "" {
		return key
	}
	sum := sha256.Sum256(body)
	return "raw:" + hex.EncodeToString(sum[:])
}

// upstream is the outcome of one upstream attempt. Exactly one of two
// shapes: a relayed HTTP response (status + body, already validated
// for 200s), or a retryable failure (err set — transport error,
// injected fault, undecodable/truncated body, or an hop budget that
// expired before the attempt could be issued).
type upstream struct {
	worker string
	status int
	body   []byte
	hedge  bool
	err    error
}

// terminal reports whether the outcome should be relayed to the client
// as-is: any decodable response the coordinator will not fail over
// from. 5xx statuses are upstream failures (another replica may serve
// them); everything else — 200s, 4xxs, 429s — is the worker's answer.
func (u *upstream) terminal() bool {
	return u.err == nil && u.status < 500
}

// tryWorker issues one attempt against one worker. It recomputes the
// remaining hop budget and POSTs the jobs with timeout_ms rewritten to
// it — the deadline-propagation half of the routing contract — as one
// /optimize job, or with batch set as one /optimize/batch sub-batch. It
// validates the response: a 200 must decode to a certified,
// permutation-valid result per job, an error to a structured document.
// Health and latency are observed here, exactly once per attempt.
func (c *Coordinator) tryWorker(ctx context.Context, worker, rid, key string, jobs []*server.Job, batch, hedge bool) *upstream {
	u := &upstream{worker: worker, hedge: hedge}
	deadline, ok := ctx.Deadline()
	remaining := time.Duration(0)
	if ok {
		remaining = time.Until(deadline) - hopMargin
	}
	if ok && remaining <= 0 {
		u.err = fmt.Errorf("cluster: hop budget exhausted before attempt: %w", context.DeadlineExceeded)
		return u
	}
	fwd := make([]*server.Job, len(jobs))
	for k, j := range jobs {
		cp := *j
		cp.TimeoutMS = remaining.Milliseconds()
		fwd[k] = &cp
	}
	path, payload := "/optimize", any(&server.Request{Job: fwd[0]})
	check := func(data []byte) error { _, err := decodeWorkerResult(data); return err }
	if batch {
		path, payload = "/optimize/batch", &server.BatchRequest{Jobs: fwd}
		check = func(data []byte) error { _, err := decodeWorkerBatch(data, len(fwd)); return err }
	}
	body, err := json.Marshal(payload)
	if err != nil {
		u.err = fmt.Errorf("cluster: encoding %s body: %w", path, err)
		return u
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+path, bytes.NewReader(body))
	if err != nil {
		u.err = err
		return u
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(server.RequestIDHeader, rid)
	if peers := c.replicaPeers(key, worker); len(peers) > 0 {
		// Name the key's ring successors so the worker can fan its
		// certified results out asynchronously after the cache store (a
		// sub-batch holds one shape, so one replica set serves it). The
		// cluster secret proves the hint came from the coordinator — the
		// worker ignores the header on unauthenticated requests.
		hreq.Header.Set(server.ReplicateToHeader, replicateToHeader(peers))
		hreq.Header.Set(replica.AuthHeader, c.cfg.ClusterSecret)
	}
	start := time.Now()
	resp, err := c.client.Do(hreq)
	if err != nil {
		u.err = err
		c.health.observe(worker, false)
		c.cfg.Metrics.Counter(MetricUpstreamErrors).Inc()
		return u
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		u.err = fmt.Errorf("cluster: reading response from %s: %w", worker, err)
		c.health.observe(worker, false)
		c.cfg.Metrics.Counter(MetricUpstreamErrors).Inc()
		return u
	}
	u.status, u.body = resp.StatusCode, data
	if u.status == http.StatusOK {
		if err := check(data); err != nil {
			// A truncated or corrupted 200 must never reach the client:
			// demote it to a retryable upstream failure.
			u.err = fmt.Errorf("cluster: invalid %s 200 from %s: %w", path, worker, err)
			c.health.observe(worker, false)
			c.cfg.Metrics.Counter(MetricUpstreamErrors).Inc()
			return u
		}
		c.lat.observe(time.Since(start))
		c.health.observe(worker, true)
		c.cfg.Metrics.Histogram(MetricUpstreamWallUS).Observe(time.Since(start).Microseconds())
		return u
	}
	if _, err := decodeWorkerError(data); err != nil {
		u.err = fmt.Errorf("cluster: unstructured %d from %s: %w", u.status, worker, err)
		c.health.observe(worker, false)
		c.cfg.Metrics.Counter(MetricUpstreamErrors).Inc()
		return u
	}
	// A structured non-200: the worker is alive and answering. Only 5xx
	// counts against its health (overload and client errors are not
	// worker faults).
	c.health.observe(worker, u.status < 500)
	if u.status >= 500 {
		c.cfg.Metrics.Counter(MetricUpstreamErrors).Inc()
	}
	return u
}

// decodeWorkerResult validates one worker 200 body: it must decode to
// a Result whose report passes engine.Report.CheckServed for the
// instance size it claims — a certified winning plan whose sequence is
// a permutation of the instance's relations. A corrupted or truncated
// body fails here and becomes a retryable upstream error instead of
// reaching a client.
func decodeWorkerResult(data []byte) (*server.Result, error) {
	var res server.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("undecodable result document: %w", err)
	}
	if err := res.Report.CheckServed(res.N); err != nil {
		return nil, err
	}
	return &res, nil
}

// decodeWorkerError validates one worker non-200 body: it must be a
// structured error document with a non-empty kind.
func decodeWorkerError(data []byte) (*server.ErrorDoc, error) {
	var doc server.ErrorDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("undecodable error document: %w", err)
	}
	if doc.Error.Kind == "" {
		return nil, errors.New("error document without a kind")
	}
	return &doc, nil
}

// errNoWorkers fails a dispatch over an empty ring.
var errNoWorkers = errors.New("cluster: no workers in the ring")

// dispatch routes jobs that share one ring key: a primary attempt, then
// budgeted failover retries down the key's replica preference list. A
// single /optimize job's primary races a hedge once the hedge delay
// fires; a sub-batch (batch set) is never hedged — a duplicated
// sub-batch multiplies whole engine-run groups, not one tail request.
// It returns the outcome to relay, which may still be a retryable
// failure when every avenue is exhausted, and the attempts made.
func (c *Coordinator) dispatch(ctx context.Context, rid, key string, jobs []*server.Job, batch bool) (*upstream, int) {
	prefs := c.routeOrder(key)
	if len(prefs) == 0 {
		return &upstream{err: errNoWorkers}, 0
	}
	next := 0
	nextWorker := func() string {
		w := prefs[next%len(prefs)]
		next++
		return w
	}
	m := c.cfg.Metrics
	var res *upstream
	if batch {
		m.Counter(MetricAttempts).Inc()
		res = c.tryWorker(ctx, nextWorker(), rid, key, jobs, true, false)
	} else {
		res = c.attemptHedged(ctx, rid, key, jobs, nextWorker)
	}
	attempts := 1
	for retry := 0; !res.terminal() && retry < c.cfg.MaxRetries; retry++ {
		if ctx.Err() != nil {
			break
		}
		if !c.budget.withdraw() {
			m.Counter(MetricRetryDenied).Inc()
			break
		}
		if err := sleepCtx(ctx, c.backoff(retry)); err != nil {
			break
		}
		m.Counter(MetricRetries).Inc()
		m.Counter(MetricAttempts).Inc()
		res = c.tryWorker(ctx, nextWorker(), rid, key, jobs, batch, false)
		attempts++
	}
	return res, attempts
}

// routeOrder is the ring's preference list for key, stably partitioned
// so routable workers come before down ones — a fully down fleet still
// gets half-open trials rather than instant failure.
func (c *Coordinator) routeOrder(key string) []string {
	all := c.ring.Lookup(key, 0)
	routable := make([]string, 0, len(all))
	var down []string
	for _, w := range all {
		if c.health.routable(w) {
			routable = append(routable, w)
		} else {
			down = append(down, w)
		}
	}
	return append(routable, down...)
}

// attemptHedged runs the primary attempt with tail-latency hedging:
// when the hedge delay lapses before the primary answers, a duplicate
// goes to the next replica (budget permitting) and the first terminal
// answer wins; the loser's context is cancelled. Safe because every
// relayed 200 is a certified result for the same canonical instance —
// the two answers are interchangeable.
func (c *Coordinator) attemptHedged(ctx context.Context, rid, key string, jobs []*server.Job, nextWorker func() string) *upstream {
	m := c.cfg.Metrics
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan *upstream, 2)
	m.Counter(MetricAttempts).Inc()
	primary := nextWorker()
	go func() { ch <- c.tryWorker(actx, primary, rid, key, jobs, false, false) }()

	delay := c.hedgeDelay()
	if delay < 0 || c.ring.Size() < 2 {
		return <-ch
	}
	timer := time.NewTimer(delay)
	defer timer.Stop()
	pending := 1
	hedging := 0 // hedges in flight (issued, no outcome yet)
	var firstFail *upstream
	for {
		select {
		case res := <-ch:
			pending--
			if res.hedge {
				hedging--
			}
			if res.terminal() {
				if res.hedge {
					m.Counter(MetricHedgeWins).Inc()
				} else if hedging > 0 {
					// The primary won with a hedge still in flight: the
					// loser is about to be cancelled without completing any
					// upstream work, so the token it withdrew bought
					// nothing — refund it. (A hedge that already failed
					// spent real worker capacity and stays charged.)
					c.budget.refund()
					m.Counter(MetricRetryRefunded).Inc()
				}
				return res
			}
			if firstFail == nil {
				firstFail = res
			}
			if pending == 0 {
				return firstFail
			}
		case <-timer.C:
			// The primary has outlived the tail threshold: issue the
			// hedge, if the shared budget allows one.
			if !c.budget.withdraw() {
				m.Counter(MetricRetryDenied).Inc()
				continue
			}
			m.Counter(MetricHedgeIssued).Inc()
			m.Counter(MetricAttempts).Inc()
			pending++
			hedging++
			hedge := nextWorker()
			go func() { ch <- c.tryWorker(actx, hedge, rid, key, jobs, false, true) }()
		case <-ctx.Done():
			return &upstream{err: ctx.Err()}
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// handleOptimize is the coordinator's POST /optimize: decode, resolve
// the ring key and budget, dispatch with hedging and budgeted
// failover, relay the worker's answer (or render a coordinator-origin
// error document when the fleet could not serve it).
func (c *Coordinator) handleOptimize(w http.ResponseWriter, r *http.Request) {
	m := c.cfg.Metrics
	m.Counter(MetricRequests).Inc()
	span := c.cfg.Tracer.Start(SpanRequest)
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
	c.budget.deposit()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.DefaultMaxBodyBytes))
	if err != nil {
		span.SetField("kind", "too_large")
		server.WriteErrorDoc(w, rid, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("request body exceeds %d bytes", server.DefaultMaxBodyBytes), 0)
		return
	}
	req, err := server.DecodeRequest(body)
	if err != nil {
		span.SetField("kind", "bad_request")
		server.WriteErrorDoc(w, rid, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	key := routeKey(req, body)
	span.SetField("key", key)

	ctx, cancel := context.WithTimeout(r.Context(), req.ResolveBudget(c.cfg.DefaultTimeout, c.cfg.MaxTimeout))
	defer cancel()

	res, attempts := c.dispatch(ctx, rid, key, []*server.Job{req.Job}, false)
	span.SetField("worker", res.worker)
	span.SetField("attempts", attempts)
	if res.err != nil {
		status, kind := http.StatusBadGateway, "upstream"
		if errors.Is(res.err, context.DeadlineExceeded) || ctx.Err() != nil {
			status, kind = http.StatusGatewayTimeout, "deadline"
		}
		span.SetField("kind", kind)
		server.WriteErrorDoc(w, rid, status, kind,
			fmt.Sprintf("upstream attempts exhausted: %v", res.err), c.cfg.RetryAfter)
		return
	}
	span.SetField("status", res.status)
	relay(w, res.status, res.body)
}

// relay writes an upstream response body through unchanged.
func relay(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}
