// Package server is the optimization daemon's serving layer: it exposes
// the supervised ensemble engine over HTTP (JSON in/out, reusing the
// qon/qoh instance decoders) and protects the expensive exact
// optimizers from overload with explicit, per-request policy instead of
// timeouts and tipping over:
//
//   - a bounded admission queue with backpressure — requests beyond the
//     worker slots wait in a bounded queue, and requests beyond the
//     queue are rejected with 429 + Retry-After;
//   - per-request deadline budgets, propagated through context into
//     engine.Run so anytime heuristics degrade to certified best-so-far
//     results instead of erroring;
//   - a load-aware graceful-degradation ladder (see Rung): full
//     certified ensemble at low load, heuristics-only (marked
//     degraded: true) under pressure, outright load shedding at the top;
//   - a per-optimizer circuit breaker (see Breaker) layered over the
//     engine's per-run quarantine;
//   - panic-isolated request handlers, /healthz and /readyz endpoints,
//     and graceful shutdown that drains in-flight requests within a
//     configurable deadline;
//   - request spans and server.* metrics wired into internal/trace.
//
// Every accepted request yields either a certified result document or a
// structured error document — nothing is silently dropped, which the
// chaos soak tests assert under injected faults.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"approxqo/internal/chaos"
	"approxqo/internal/classify"
	"approxqo/internal/cliutil"
	"approxqo/internal/cluster/replica"
	"approxqo/internal/engine"
	"approxqo/internal/opt"
	"approxqo/internal/trace"
)

// Metric names published into the configured registry. The soak tests
// assert the admission invariant: every POST /optimize hit is either
// accepted or rejected at admission (MetricRequests = MetricAccepted +
// MetricRejected + non-POST hits), and every accepted request is
// answered (200, a 400/413 decode failure, a queue-deadline 503, or an
// engine-error document). MetricBadRequest counts response documents —
// pre-admission 405s plus post-admission decode failures — so it
// overlaps MetricAccepted rather than partitioning MetricRequests.
const (
	MetricRequests      = "server.requests"        // counter: POST /optimize hits
	MetricAccepted      = "server.accepted"        // counter: requests admitted
	MetricRejected      = "server.rejected"        // counter: 429/503 at admission
	MetricShed          = "server.shed"            // counter: shed-rung rejections (⊆ rejected)
	MetricDegraded      = "server.degraded"        // counter: requests served heuristics-only
	MetricBadRequest    = "server.bad_request"     // counter: 400/405 responses
	MetricQueueDeadline = "server.queue.deadline"  // counter: budgets expired while queued
	MetricPanics        = "server.panics"          // counter: handler panics converted to 500s
	MetricBreakerSkips  = "server.breaker.skips"   // counter: optimizers left out, circuit open
	MetricRouted        = "server.routed"          // counter: requests served through the adaptive router
	MetricRouteSkips    = "server.route.skips"     // counter: optimizers the router left out (routing+degraded skips)
	MetricInFlight      = "server.inflight"        // gauge: admitted, not yet answered
	MetricQueueDepth    = "server.queue.depth"     // gauge: admitted, waiting for a worker slot
	MetricRung          = "server.rung"            // histogram: ladder rung per accepted request
	MetricQueueWaitUS   = "server.queue.wait_us"   // histogram: time queued before a slot (µs)
	MetricRequestWallUS = "server.request.wall_us" // histogram: accepted-request wall time (µs)
	MetricDecodeUS      = "server.decode_us"       // histogram: DecodeRequest time of a /optimize body (µs)
	MetricCanonUS       = "server.canon_us"        // histogram: canonical labeling time, once per request that computes it (µs)
)

// Batch metric names. POST /optimize/batch deliberately keeps its own
// counters so the single-request admission invariant above stays exact;
// the admission ladder itself is shared (each distinct shape takes one
// in-flight slot through admit/release, so MetricInFlight and the
// ladder thresholds see batch load).
const (
	MetricBatchRequests = "server.batch.requests" // counter: POST /optimize/batch hits
	MetricBatchJobs     = "server.batch.jobs"     // counter: jobs across all decoded batches
	MetricBatchShapes   = "server.batch.shapes"   // counter: distinct shapes admitted (engine runs charged)
	MetricBatchRejected = "server.batch.rejected" // counter: shape groups refused admission
)

// SpanRequest names the per-request span (fields: model, n, rung,
// status, kind). SpanBatch names the per-batch span (fields: jobs,
// shapes, status).
const (
	SpanRequest = "server.request"
	SpanBatch   = "server.batch"
)

// Config configures a Server. The zero value is usable: every field
// has a production-shaped default.
type Config struct {
	// MaxConcurrent is the number of worker slots running the engine at
	// once (default GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth is the admission queue beyond the worker slots;
	// requests past MaxConcurrent+QueueDepth are rejected with 429
	// (default 4×MaxConcurrent).
	QueueDepth int
	// DegradeAt is the load (admitted requests not yet answered) at
	// which the ladder sheds the exact optimizers (default
	// MaxConcurrent: degrade as soon as requests start queueing).
	DegradeAt int
	// ShedAt is the load at which requests are rejected outright with
	// 503; zero disables the shed rung and leaves backpressure to the
	// queue bound alone. Must be > DegradeAt when set.
	ShedAt int

	// DefaultTimeout is the per-request budget when the request does
	// not carry timeout_ms (default 2s). MaxTimeout clamps requested
	// budgets (default 30s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DrainTimeout bounds graceful shutdown's drain of in-flight
	// requests (default 5s).
	DrainTimeout time.Duration
	// RetryAfter is the hint attached to 429/503 rejections (default
	// 250ms).
	RetryAfter time.Duration
	// MaxBatchJobs caps the jobs array of POST /optimize/batch (default
	// DefaultMaxBatchJobs).
	MaxBatchJobs int

	// CacheSize is the capacity of the certified-result cache keyed by
	// canonical instance hash: zero means DefaultCacheSize, negative
	// disables caching. Only full-rung certified reports are stored, so
	// a cache hit is always served with degraded: false. The cache is
	// bypassed entirely when chaos injection is active — fault behaviour
	// must stay per-request.
	CacheSize int

	// Route enables adaptive optimizer routing: the structural
	// classifier (internal/classify) picks the ensemble tiers and
	// budget split per QO_N instance, and the degradation ladder sheds
	// the tier the classifier ranks least important instead of always
	// shedding the exact optimizers. Per-job `route` overrides it
	// either way. Routed reduced-ensemble results are cached only when
	// certified exact (a greedy-only answer must never be served to a
	// later full-ensemble request).
	Route bool

	// Seed seeds the randomized heuristics; each request derives its
	// own seed from it.
	Seed int64
	// ChaosSpec injects deterministic faults into every request's
	// ensemble (the qopt -chaos grammar) — the soak tests and qod
	// -chaos use it; empty disables. ChaosOptions configure the
	// injectors (stall duration, transient-failure counts).
	ChaosSpec    string
	ChaosOptions []chaos.Option

	// ReplicaTransport is the HTTP transport used for cache-replication
	// fan-out to ring peers (nil means http.DefaultTransport). The chaos
	// soak injects a partitioning transport here.
	ReplicaTransport http.RoundTripper
	// ClusterSecret authenticates replication traffic: the /cache/*
	// endpoints refuse requests that do not carry it in
	// replica.AuthHeader, and the X-Replicate-To fan-out hint is honored
	// only on requests that do. Empty (the default) closes the surface
	// entirely — every /cache/* request is refused and every
	// X-Replicate-To header ignored — so a standalone worker exposes no
	// cache-write or fan-out primitive.
	ClusterSecret string

	// EngineGrace overrides the engine's post-cancellation grace window
	// (default engine.DefaultGrace).
	EngineGrace time.Duration

	// Tracer / Metrics wire the server and its engine into the
	// observability layer; nil disables either.
	Tracer  *trace.Tracer
	Metrics *trace.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxConcurrent
	}
	if c.DegradeAt <= 0 {
		c.DegradeAt = c.MaxConcurrent
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	if c.MaxBatchJobs <= 0 {
		c.MaxBatchJobs = DefaultMaxBatchJobs
	}
	return c
}

// DefaultMaxBatchJobs is the jobs-array cap of POST /optimize/batch
// when Config.MaxBatchJobs is zero.
const DefaultMaxBatchJobs = 64

// Server serves optimization requests. Build with New; serve via
// Handler (in-process, tests) or ListenAndServe (qod).
type Server struct {
	cfg        Config
	eng        *engine.Engine
	breaker    *Breaker
	chaosRules []chaos.Rule
	cache      *resultCache // nil when disabled (CacheSize < 0)
	flights    *flightGroup

	replicaSem    chan struct{} // bounded fan-out pool (nil when cache disabled)
	replicaClient *http.Client  // fan-out offers to ring peers

	slots  chan struct{} // worker tokens
	reqSeq atomic.Int64  // per-request seed derivation
	queued atomic.Int64  // waiting for a slot (healthz, gauge mirror)

	mu          sync.Mutex
	inflight    int // admitted, not yet answered
	draining    bool
	drainClosed bool
	drained     chan struct{}

	started time.Time
	mux     *http.ServeMux
}

// New builds a Server. It fails only on an invalid configuration (bad
// chaos spec, inconsistent ladder thresholds).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.ShedAt > 0 && cfg.ShedAt <= cfg.DegradeAt {
		return nil, fmt.Errorf("server: ShedAt (%d) must exceed DegradeAt (%d)", cfg.ShedAt, cfg.DegradeAt)
	}
	rules, err := chaos.ParseSpec(cfg.ChaosSpec)
	if err != nil {
		return nil, err
	}
	engOpts := []engine.Option{
		engine.WithTracer(cfg.Tracer),
		engine.WithMetrics(cfg.Metrics),
	}
	if cfg.EngineGrace > 0 {
		engOpts = append(engOpts, engine.WithGrace(cfg.EngineGrace))
	}
	s := &Server{
		cfg:        cfg,
		eng:        engine.New(engOpts...),
		breaker:    NewBreaker(DefaultBreakerThreshold, DefaultBreakerCooldown),
		chaosRules: rules,
		slots:      make(chan struct{}, cfg.MaxConcurrent),
		flights:    newFlightGroup(),
		drained:    make(chan struct{}),
		started:    time.Now(),
	}
	if size := cfg.CacheSize; size >= 0 {
		if size == 0 {
			size = DefaultCacheSize
		}
		s.cache = newResultCache(size)
		s.replicaSem = make(chan struct{}, replicateWorkers)
		rt := cfg.ReplicaTransport
		if rt == nil {
			rt = http.DefaultTransport
		}
		s.replicaClient = &http.Client{Transport: rt}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/optimize", s.handleOptimize)
	s.mux.HandleFunc("/optimize/batch", s.handleBatch)
	s.mux.HandleFunc("/cache/offer", s.handleCacheOffer)
	s.mux.HandleFunc("/cache/digest", s.handleCacheDigest)
	s.mux.HandleFunc("/cache/keys", s.handleCacheKeys)
	s.mux.HandleFunc("/cache/export", s.handleCacheExport)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s, nil
}

// Engine exposes the server's supervised engine (its Health feeds
// /readyz; tests reach it too).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Handler returns the server's panic-isolated HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.cfg.Metrics.Counter(MetricPanics).Inc()
				WriteErrorDoc(w, requestID(r), http.StatusInternalServerError, "panic",
					fmt.Sprintf("internal error: %v", p), 0)
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// ListenAndServe serves on addr until ctx is cancelled, then performs a
// graceful shutdown: admission stops, in-flight requests drain within
// DrainTimeout, and only then do the listeners close.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	hs := &http.Server{Addr: addr, Handler: s.Handler()}
	errC := make(chan error, 1)
	go func() { errC <- hs.ListenAndServe() }()
	select {
	case err := <-errC:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	drainErr := s.Shutdown(drainCtx)
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) && drainErr == nil {
		drainErr = err
	}
	return drainErr
}

// Shutdown stops admitting requests (new ones get a structured 503
// "draining" document) and blocks until every in-flight request has
// been answered or ctx expires. It returns nil exactly when the drain
// completed with zero dropped requests.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.inflight == 0 && !s.drainClosed {
		close(s.drained)
		s.drainClosed = true
	}
	s.mu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		return fmt.Errorf("server: drain incomplete, %d request(s) still in flight: %w", n, ctx.Err())
	}
}

// InFlight reports the number of admitted, unanswered requests.
func (s *Server) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// rejection is a refused admission: a status, a taxonomy kind and a
// message, rendered as a structured error document with Retry-After.
type rejection struct {
	status int
	kind   string
	msg    string
}

// admit applies admission control and the degradation ladder. On
// success the caller holds one in-flight slot (pair with release) and
// the rung to serve at; otherwise the rejection says why.
func (s *Server) admit() (Rung, *rejection) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return 0, &rejection{http.StatusServiceUnavailable, "draining", "server is draining; request not admitted"}
	}
	load := s.inflight
	capacity := s.cfg.MaxConcurrent + s.cfg.QueueDepth
	if load >= capacity {
		return 0, &rejection{http.StatusTooManyRequests, "overloaded",
			fmt.Sprintf("admission queue full (%d in flight, capacity %d)", load, capacity)}
	}
	rung := ladder(load, s.cfg.DegradeAt, s.cfg.ShedAt)
	if rung == RungShed {
		s.cfg.Metrics.Counter(MetricShed).Inc()
		return 0, &rejection{http.StatusServiceUnavailable, "shed",
			fmt.Sprintf("load shed at rung %q (%d in flight, shed threshold %d)", rung, load, s.cfg.ShedAt)}
	}
	s.inflight++
	s.cfg.Metrics.Gauge(MetricInFlight).Add(1)
	return rung, nil
}

// precheck reports the rejection admit would return right now, without
// taking a slot: the batch endpoint's cheap pre-decode gate — a
// draining or saturated server refuses the whole batch before paying
// for a JSON decode. It never touches metrics; real admission attempts
// account themselves.
func (s *Server) precheck() *rejection {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return &rejection{http.StatusServiceUnavailable, "draining", "server is draining; request not admitted"}
	}
	load := s.inflight
	capacity := s.cfg.MaxConcurrent + s.cfg.QueueDepth
	if load >= capacity {
		return &rejection{http.StatusTooManyRequests, "overloaded",
			fmt.Sprintf("admission queue full (%d in flight, capacity %d)", load, capacity)}
	}
	if ladder(load, s.cfg.DegradeAt, s.cfg.ShedAt) == RungShed {
		return &rejection{http.StatusServiceUnavailable, "shed",
			fmt.Sprintf("load shed (%d in flight, shed threshold %d)", load, s.cfg.ShedAt)}
	}
	return nil
}

// release returns an in-flight slot; the last release during a drain
// completes Shutdown.
func (s *Server) release() {
	s.mu.Lock()
	s.inflight--
	s.cfg.Metrics.Gauge(MetricInFlight).Add(-1)
	if s.draining && s.inflight == 0 && !s.drainClosed {
		close(s.drained)
		s.drainClosed = true
	}
	s.mu.Unlock()
}

// handleOptimize is POST /optimize: admission, decode, queue for a
// worker slot, run the (possibly degraded) ensemble under the request's
// deadline budget, respond with a certified result or a structured
// error document.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	m := s.cfg.Metrics
	m.Counter(MetricRequests).Inc()
	span := s.cfg.Tracer.Start(SpanRequest)
	defer span.End()
	rid := echoRequestID(w, r, span)
	if r.Method != http.MethodPost {
		m.Counter(MetricBadRequest).Inc()
		span.SetField("kind", "method_not_allowed")
		WriteErrorDoc(w, rid, http.StatusMethodNotAllowed, "method_not_allowed",
			"use POST with a JSON request body", 0)
		return
	}

	// Admission before body parsing: under overload, rejects cost a few
	// atomic ops, not a JSON decode.
	rung, rej := s.admit()
	if rej != nil {
		m.Counter(MetricRejected).Inc()
		span.SetField("kind", rej.kind)
		WriteErrorDoc(w, rid, rej.status, rej.kind, rej.msg, s.cfg.RetryAfter)
		return
	}
	accepted := time.Now()
	defer s.release()
	m.Counter(MetricAccepted).Inc()
	m.Histogram(MetricRung).Observe(int64(rung))
	span.SetField("rung", rung.String())
	if rung.Degraded() {
		m.Counter(MetricDegraded).Inc()
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
	body := buf.Bytes()
	// The byte-identity index first: a body byte-identical to one that
	// stored a cache entry is served from that entry without decode,
	// validation or canonical labeling (DESIGN.md § Byte-identity cache
	// index).
	var out jobOutcome
	var model, rawKey string
	if s.cacheActive() {
		rawKey = bodyKey(body)
		out, model = s.serveBodyHit(rawKey, accepted)
	}
	if !out.ok {
		t0 := time.Now()
		req, err := DecodeRequest(body)
		m.Histogram(MetricDecodeUS).Observe(time.Since(t0).Microseconds())
		if err != nil {
			m.Counter(MetricBadRequest).Inc()
			span.SetField("kind", "bad_request")
			WriteErrorDoc(w, rid, http.StatusBadRequest, "bad_request", err.Error(), 0)
			return
		}
		req.rawKey, req.wholeBody = rawKey, true
		req.canonUS = m.Histogram(MetricCanonUS)
		model = req.model()
		if s.peerAuthed(r) {
			// The fan-out hint is only honored from authenticated cluster
			// peers: an arbitrary client must not be able to direct this
			// worker to POST cache offers at URLs of its choosing.
			req.replicaTo = parseReplicaTo(r.Header.Get(ReplicateToHeader))
		}

		// The budget covers queueing, deduplication and optimization, so a
		// request cannot occupy the queue longer than its caller is willing
		// to wait.
		ctx, cancel := context.WithTimeout(r.Context(), req.ResolveBudget(s.cfg.DefaultTimeout, s.cfg.MaxTimeout))
		defer cancel()
		out = s.serveAdmitted(ctx, req, rung, accepted)
	}
	span.SetField("model", model)
	if !out.ok {
		span.SetField("kind", out.kind)
		WriteErrorDoc(w, rid, out.status, out.kind, out.msg, out.retryAfter)
		return
	}
	if out.cached {
		span.SetField("kind", "cache_hit")
		span.SetField("cache_path", out.cachePath)
	}
	span.SetField("status", http.StatusOK)
	WriteJSON(w, http.StatusOK, out.result(model))
	// The response bytes are written: the pooled report and remap view
	// (if any) can go back to their pools.
	out.close()
}

// jobOutcome is the result of serving one admitted, decoded job — the
// shared core of /optimize and /optimize/batch. Either ok with a
// report, or an error triple (status, kind, msg).
type jobOutcome struct {
	ok         bool
	status     int
	kind, msg  string
	retryAfter time.Duration

	rep       *engine.Report // in the requester's label space
	view      *reportView    // pooled remap state backing rep on cache hits
	rung      Rung           // rung the result was served at (full for cache hits)
	cached    bool
	cachePath string             // lookup that served a cache hit: cachePathBody or cachePathCanonical
	routing   *classify.Decision // non-nil when the adaptive router picked the ensemble
	fp        string             // instance fingerprint when canonical identity resolved
	queueMS   float64
	wallMS    float64
}

// close releases the outcome's pooled state — the engine report (a
// no-op unless pool-born) and the remap view, if any. It must be
// called only after the response document referencing out.rep has been
// fully written; afterwards the outcome's report must not be touched.
func (o *jobOutcome) close() {
	if o.view != nil {
		// out.rep aliases the view's Report shell (never pool-born), so
		// releasing the view covers it — and rep must not be touched
		// after the view returns to its pool.
		o.view.release()
		o.view, o.rep = nil, nil
		return
	}
	if o.rep != nil {
		o.rep.Release()
		o.rep = nil
	}
}

// result renders the outcome as the success document.
func (o *jobOutcome) result(model string) *Result {
	return &Result{
		Model:       model,
		N:           o.rep.N,
		Rung:        o.rung.String(),
		Degraded:    o.rung.Degraded(),
		Cached:      o.cached,
		Routing:     o.routing,
		Fingerprint: o.fp,
		QueueMS:     o.queueMS,
		WallMS:      o.wallMS,
		Report:      o.rep,
	}
}

// serveAdmitted runs one admitted, decoded request end to end: the
// certified-result cache (keyed by model + canonical fingerprint, so
// relabeled duplicates hit) with singleflight duplicate suppression,
// the worker-slot queue, the ensemble run, and the cache store. The
// caller holds the in-flight slot and owns the HTTP (or batch-item)
// rendering of the outcome.
func (s *Server) serveAdmitted(ctx context.Context, req *Request, rung Rung, accepted time.Time) (out jobOutcome) {
	m := s.cfg.Metrics
	out.rung = rung

	// Cache and singleflight are bypassed under chaos injection: fault
	// behaviour must stay per-request, never served from memory. Stored
	// reports live in canonical label space; hits remap them into the
	// requester's labels through the inverse canonical permutation.
	var key string
	if s.cacheActive() {
		key = req.Key()
		out.fp, _, _ = req.CanonicalID()
	}
	for key != "" {
		if rep, storedRaw, ok := s.cache.get(key); ok {
			// A hit from an entry some other source stored exists only
			// because of canonical keying.
			_, perm, _ := req.CanonicalID()
			if s.serveHit(&out, key, rep, perm, cachePathCanonical, storedRaw != req.rawKey, accepted) {
				return out
			}
		}
		call, leader := s.flights.join(key)
		if leader {
			m.Counter(MetricCacheMisses).Inc()
			defer s.flights.leave(key, call)
			break // run below; a cacheable outcome is stored before leave
		}
		// Follower: an identical request is already in flight. Wait it
		// out, then re-check the cache — if the leader's outcome was not
		// cacheable (degraded rung, error), the next round promotes this
		// request to leader instead of losing it.
		select {
		case <-call.done:
		case <-ctx.Done():
			// Budget exhausted while deduplicating: fall through to the
			// normal path, whose slot wait accounts the queue deadline.
			key = ""
		}
	}

	s.queued.Add(1)
	s.cfg.Metrics.Gauge(MetricQueueDepth).Add(1)
	select {
	case s.slots <- struct{}{}:
		s.queued.Add(-1)
		s.cfg.Metrics.Gauge(MetricQueueDepth).Add(-1)
	case <-ctx.Done():
		s.queued.Add(-1)
		s.cfg.Metrics.Gauge(MetricQueueDepth).Add(-1)
		m.Counter(MetricQueueDeadline).Inc()
		out.status = http.StatusServiceUnavailable
		out.kind = "queue_deadline"
		out.msg = "deadline budget expired while queued"
		out.retryAfter = s.cfg.RetryAfter
		return out
	}
	defer func() { <-s.slots }()
	queueWait := time.Since(accepted)
	m.Histogram(MetricQueueWaitUS).Observe(queueWait.Microseconds())

	rep, dec, err := s.run(ctx, req, rung)
	out.routing = dec
	wall := time.Since(accepted)
	m.Histogram(MetricRequestWallUS).Observe(wall.Microseconds())
	if key != "" && err == nil && rung == RungFull &&
		rep != nil && rep.Best != nil && rep.Best.Certified &&
		(dec == nil || !dec.Reduced() || rep.Best.Exact) {
		// Only full-rung certified reports are stored: a hit must never
		// downgrade a future request to a heuristics-only answer. For
		// the same reason a routed reduced-ensemble report qualifies
		// only when its winner is certified exact — optimal is optimal
		// no matter how few optimizers ran. The stored copy is remapped
		// into canonical label space so any relabeling of this instance
		// can be served from it, and detached so it survives the pooled
		// report's release.
		if fp, perm, cerr := req.CanonicalID(); cerr == nil {
			canon := detachRemapped(rep, perm)
			// A whole /optimize body also indexes the entry by its digest,
			// so byte-identical replays skip decode (serveBodyHit).
			var src *bodySource
			if req.wholeBody {
				src = &bodySource{model: req.model(), fp: fp, perm: perm}
			}
			s.cache.put(key, req.rawKey, canon, src)
			// Replicate the canonical copy to the ring successors the
			// coordinator named, asynchronously — the response below never
			// waits on a peer. Offers carry no body, so replicas never
			// index them.
			s.replicate(req.replicaTo, &replica.Entry{Key: key, RawKey: req.rawKey, Report: canon})
		}
	}
	if err != nil {
		// The failed run's report (possibly partial, e.g. all-failed) is
		// never served: release its pooled buffers here.
		rep.Release()
		out.kind = cliutil.Classify(err)
		out.status = http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) {
			out.status = http.StatusGatewayTimeout
		}
		out.msg = err.Error()
		return out
	}
	out.ok = true
	out.status = http.StatusOK
	out.rep = rep
	out.queueMS = float64(queueWait.Microseconds()) / 1000
	out.wallMS = float64(wall.Microseconds()) / 1000
	return out
}

// Cache paths, the server.request span's cache_path field on a hit.
const (
	cachePathBody      = "body"      // byte-identity index: the body that stored the entry, replayed
	cachePathCanonical = "canonical" // canonical key: decoded and canonically labeled first
)

// cacheActive reports whether requests consult the result cache: it is
// enabled and no chaos rules are set (fault behaviour must stay
// per-request).
func (s *Server) cacheActive() bool { return s.cache != nil && len(s.chaosRules) == 0 }

// serveBodyHit serves a byte-identical replay of an /optimize body
// that stored a cache entry, from the byte-identity index: no decode,
// no validation, no canonical labeling — the stored permutation and
// fingerprint are the ones this body resolves to. out.ok is false on
// an index miss or a failed size check; the caller then decodes.
func (s *Server) serveBodyHit(rawKey string, accepted time.Time) (out jobOutcome, model string) {
	key, rep, src, found := s.cache.getBody(rawKey)
	if !found {
		return out, ""
	}
	out.fp = src.fp
	if !s.serveHit(&out, key, rep, src.perm, cachePathBody, false, accepted) {
		return jobOutcome{}, ""
	}
	return out, src.model
}

// serveHit fills out with a cache hit on rep, the canonical-space
// report stored under key, for a requester whose labels map into
// canonical space through perm. Both cache paths serve through it, so
// they share the size-binding check, the metrics and the pooled remap.
// canonicalOnly marks a hit a byte-identity cache would have missed.
// A stored report is always a certified full-rung result, so the hit
// is served at the full rung whatever rung the request was admitted at.
func (s *Server) serveHit(out *jobOutcome, key string, rep *engine.Report, perm []int, path string, canonicalOnly bool, accepted time.Time) bool {
	m := s.cfg.Metrics
	if rep == nil || rep.N != len(perm) || rep.Best == nil || len(rep.Best.Sequence) != rep.N {
		// The stored report disagrees with the requesting instance's
		// size: serving it would remap out of bounds. Key↔report binding
		// at the replication trust boundary makes this unreachable, but
		// the cache is also fed by local stores and must never crash on
		// its own contents — evict the corrupt entry and run for real.
		m.Counter(MetricCacheMismatch).Inc()
		s.cache.evict(key)
		return false
	}
	m.Counter(MetricCacheHits).Inc()
	if path == cachePathBody {
		m.Counter(MetricBodyHits).Inc()
	}
	if canonicalOnly {
		m.Counter(MetricCanonicalHits).Inc()
	}
	wall := time.Since(accepted)
	m.Histogram(MetricRequestWallUS).Observe(wall.Microseconds())
	out.ok = true
	out.status = http.StatusOK
	out.rung = RungFull
	out.cached = true
	out.cachePath = path
	out.rep, out.view = viewRemapped(rep, invertPerm(perm))
	out.wallMS = float64(wall.Microseconds()) / 1000
	return true
}

// reportView is the pooled per-response state of a label remap: a
// Report shell, a BestRecord and a sequence backing array, recycled
// across requests so a cache hit allocates nothing for its remapped
// view. The view shares the source report's record buffers (they are
// label-invariant and read-only while served); it must be released
// only after the response referencing it has been written, and never
// outlive the source report's own lifetime (cached reports are
// detached, so that is automatic).
type reportView struct {
	rep  engine.Report
	best engine.BestRecord
	seq  []int
}

var reportViewPool = sync.Pool{New: func() any { return new(reportView) }}

// release returns the view's buffers to the pool, dropping every
// reference into the source report so a pooled view never pins a
// cached report in memory. Nil-safe.
func (v *reportView) release() {
	if v == nil {
		return
	}
	v.rep = engine.Report{}
	v.best = engine.BestRecord{}
	reportViewPool.Put(v)
}

// viewRemapped returns rep viewed with every entry of Best.Sequence
// mapped through perm (perm[v] = new label of v), built in pooled
// state instead of fresh allocations. Every other report field is
// label-invariant — Breaks are sequence positions, run records carry
// no sequences — and is shared with the original. A nil perm
// (identity) or sequence-free report is returned unchanged with a nil
// view. Constructing the shell field-by-field (rather than copying
// *rep) also guarantees the view never inherits the engine's pool
// ownership flags: Release on a view is always a no-op.
func viewRemapped(rep *engine.Report, perm []int) (*engine.Report, *reportView) {
	if rep == nil || rep.Best == nil || perm == nil {
		return rep, nil
	}
	v := reportViewPool.Get().(*reportView)
	n := len(rep.Best.Sequence)
	if cap(v.seq) < n {
		v.seq = make([]int, n)
	}
	seq := v.seq[:n]
	for k, val := range rep.Best.Sequence {
		seq[k] = perm[val]
	}
	v.best = *rep.Best
	v.best.Sequence = seq
	v.rep = engine.Report{
		Model:       rep.Model,
		N:           rep.N,
		Best:        &v.best,
		Runs:        rep.Runs,
		Quarantined: rep.Quarantined,
		Skipped:     rep.Skipped,
		WallMS:      rep.WallMS,
		SpanID:      rep.SpanID,
	}
	return &v.rep, v
}

// detachRemapped returns a detached deep copy of rep with
// Best.Sequence mapped through perm — the canonical-label copy handed
// to the cache and the replication fan-out, safe to retain and serve
// indefinitely after the pooled original is released.
func detachRemapped(rep *engine.Report, perm []int) *engine.Report {
	d := rep.Detach()
	if d != nil && d.Best != nil && perm != nil {
		for k, v := range d.Best.Sequence {
			d.Best.Sequence[k] = perm[v]
		}
	}
	return d
}

// invertPerm returns perm⁻¹, or nil for nil.
func invertPerm(perm []int) []int {
	if perm == nil {
		return nil
	}
	inv := make([]int, len(perm))
	for v, p := range perm {
		inv[p] = v
	}
	return inv
}

// run executes the request's ensemble at the given rung under ctx and
// feeds the outcome into the circuit breaker. When adaptive routing is
// active for the request (Config.Route, overridable per job) the
// returned Decision documents the classifier's choice; nil otherwise.
func (s *Server) run(ctx context.Context, req *Request, rung Rung) (*engine.Report, *classify.Decision, error) {
	seed := s.cfg.Seed + s.reqSeq.Add(1)
	var rep *engine.Report
	var dec *classify.Decision
	var err error
	var skips []engine.SkipRecord
	if req.model() == "qoh" {
		// The load ladder sheds the exact tier (qoh-exhaustive).
		d := classify.Unrouted()
		if rung.Degraded() {
			d = d.Degrade()
		}
		var searchers []engine.QOHSearcher
		searchers, skips = classify.QOHEnsemble(d, req.QOHInstance.N(), seed, s.breaker.Allow)
		rep, err = s.eng.RunQOH(ctx, req.QOHInstance, searchers...)
	} else {
		in, ierr := req.qonInstance()
		if ierr != nil {
			return nil, nil, ierr
		}
		d, routed := classify.Unrouted(), req.routeEnabled(s.cfg.Route)
		if routed {
			d = classify.Route(classify.Extract(in))
		}
		if rung.Degraded() {
			// The ladder sheds the tier the decision ranks least
			// important — the exact tier when unrouted; for adversarial
			// instances the heuristics, keeping the certified exact tier.
			d = d.Degrade()
		}
		var optimizers []opt.Optimizer
		optimizers, skips = classify.Ensemble(d, in.N(), seed, s.breaker.Allow)
		if len(s.chaosRules) > 0 {
			optimizers = chaos.Apply(s.chaosRules, optimizers,
				append(append([]chaos.Option(nil), s.cfg.ChaosOptions...), chaos.WithSeed(seed))...)
		}
		if routed {
			dec = &d
			s.cfg.Metrics.Counter(MetricRouted).Inc()
			s.cfg.Metrics.Counter(MetricRouteSkips).Add(int64(len(skips)))
			// A reduced ensemble deserves a reduced slice of the budget:
			// the wall-time headroom is the point of routing.
			if frac := d.BudgetFrac; frac > 0 && frac < 1 {
				if dl, ok := ctx.Deadline(); ok {
					scaled := time.Now().Add(time.Duration(float64(time.Until(dl)) * frac))
					var cancel context.CancelFunc
					ctx, cancel = context.WithDeadline(ctx, scaled)
					defer cancel()
				}
			}
		}
		rep, err = s.eng.Run(ctx, in, optimizers...)
	}
	for _, sk := range skips {
		if sk.Reason == engine.SkipBreaker {
			s.cfg.Metrics.Counter(MetricBreakerSkips).Inc()
		}
	}
	if rep != nil {
		rep.Skipped = skips
		for i := range rep.Runs {
			rec := &rep.Runs[i]
			if rec.Certified {
				s.breaker.Record(rec.Name, true)
			} else if rec.Quarantined {
				// Only quarantine trips the breaker: errors alone include
				// benign cancellations from the engine's early exit.
				s.breaker.Record(rec.Name, false)
			}
		}
	}
	return rep, dec, err
}

// Result is the success document of POST /optimize.
type Result struct {
	Model string `json:"model"`
	N     int    `json:"n"`
	// Rung is the degradation-ladder rung the request was served at;
	// Degraded marks a heuristics-only (exact-optimizers-shed) result.
	Rung     string `json:"rung"`
	Degraded bool   `json:"degraded"`
	// Cached marks a result served from the certified-result cache —
	// always a full-rung, non-degraded report. In a batch response it
	// also marks group mates served from their leader's single engine
	// run.
	Cached bool `json:"cached,omitempty"`
	// Routing is the adaptive router's decision (class, tiers, reason,
	// features) when it picked this request's ensemble; nil for
	// unrouted requests and cache hits. Report.Skipped lists the
	// optimizers the decision left out.
	Routing *classify.Decision `json:"routing,omitempty"`
	// Fingerprint is the graph-invariant canonical identity of the
	// resolved instance (the bare fingerprint — the cache key prefixes
	// it with model and instance size, see replica.Key); empty when
	// caching is disabled or bypassed.
	Fingerprint string `json:"fingerprint,omitempty"`
	// QueueMS is time spent waiting for a worker slot; WallMS the full
	// accepted-to-answered wall time.
	QueueMS float64 `json:"queue_ms"`
	WallMS  float64 `json:"wall_ms"`
	// Report is the engine's full per-optimizer account; Report.Best is
	// the certified winning plan.
	Report *engine.Report `json:"report"`
}

// ErrorDoc is the structured error document every non-200 response
// carries: the same {"error":{"kind","message"}} shape as the CLI's
// -json fatal errors, plus a retry hint on 429/503.
type ErrorDoc struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the payload of an ErrorDoc.
type ErrorBody struct {
	// Kind is a stable taxonomy tag: the CLI kinds (all_failed,
	// deadline, …) plus the server's own (bad_request, overloaded,
	// shed, draining, queue_deadline, too_large, method_not_allowed,
	// panic).
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// RetryAfterMS mirrors the Retry-After header on 429/503: the
	// backoff hint for well-behaved clients (see loadgen).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// RequestID echoes the request's X-Request-ID header (generated by
	// the client or the cluster coordinator), so a failure can be traced
	// across the coordinator→worker hop. Empty when the caller sent
	// none.
	RequestID string `json:"request_id,omitempty"`
}

// RequestIDHeader carries the end-to-end request correlation ID
// (client → coordinator → worker). The server never generates one: it
// echoes whatever the caller sent, on the response header, on the
// server.request span (field request_id) and in error documents.
const RequestIDHeader = "X-Request-ID"

func requestID(r *http.Request) string { return r.Header.Get(RequestIDHeader) }

// echoRequestID reflects the caller's request ID onto the response and
// the span, returning it for the error-document path.
func echoRequestID(w http.ResponseWriter, r *http.Request, span *trace.Span) string {
	rid := requestID(r)
	if rid != "" {
		w.Header().Set(RequestIDHeader, rid)
		span.SetField("request_id", rid)
	}
	return rid
}

// encState is the pooled JSON response encoder: one buffer plus one
// encoder, recycled across responses so serving a request re-allocates
// neither the encoder machinery nor (once warm) the response buffer.
// Buffering the whole document before writing also lets every response
// carry Content-Length.
type encState struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &encState{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// maxPooledBytes caps the buffer capacity the encoder and request-body
// pools retain: a one-off giant batch document must not pin its buffer
// forever.
const maxPooledBytes = 1 << 20

// WriteJSON writes v as the response document: compact JSON with
// Content-Type and Content-Length, encoded through a pooled buffer. The
// worker and the cluster coordinator write every document through it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	e := encPool.Get().(*encState)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		// Encode failed mid-buffer (unmarshalable value — none of our
		// documents are). The encoder's error state is sticky, so the
		// state is dropped rather than pooled.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(e.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(e.buf.Bytes())
	if e.buf.Cap() <= maxPooledBytes {
		encPool.Put(e)
	}
}

// bodyPool recycles request-body buffers across /optimize and
// /optimize/batch requests.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads r's body, capped at DefaultMaxBodyBytes, into a pooled
// buffer pre-grown from Content-Length, so a body is read without
// regrowing. The caller must hand the buffer to putBody only after the
// response is written: until then the request's byte identity and any
// error text may still be derived from it. Decoded requests share no
// memory with the body, so nothing that outlives the handler (cache
// entries, abandoned engine runs) holds it.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if n := r.ContentLength; n > 0 && n <= DefaultMaxBodyBytes {
		// One MinRead of slack lets ReadFrom see EOF without growing.
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes))
	return buf, err
}

// putBody returns a readBody buffer to the pool, unless it grew past
// maxPooledBytes.
func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBytes {
		bodyPool.Put(buf)
	}
}

// WriteErrorDoc writes the structured error document of kind and msg,
// echoing the request ID rid. A positive retryAfter sets both the
// document's retry hint and the Retry-After header. The cluster
// coordinator writes its own failures through it too, so clients
// handle coordinator and worker failures identically.
func WriteErrorDoc(w http.ResponseWriter, rid string, status int, kind, msg string, retryAfter time.Duration) {
	var doc ErrorDoc
	doc.Error.Kind = kind
	doc.Error.Message = msg
	doc.Error.RequestID = rid
	if retryAfter > 0 {
		doc.Error.RetryAfterMS = retryAfter.Milliseconds()
		// Retry-After is whole seconds; round up so the header never
		// promises an earlier retry than the document.
		w.Header().Set("Retry-After", strconv.FormatInt(int64((retryAfter+time.Second-1)/time.Second), 10))
	}
	WriteJSON(w, status, &doc)
}

// HealthDoc is the /healthz payload: liveness plus the load gauges.
type HealthDoc struct {
	Status   string  `json:"status"`
	UptimeMS float64 `json:"uptime_ms"`
	InFlight int     `json:"inflight"`
	Queued   int     `json:"queued"`
	Draining bool    `json:"draining"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	inflight, draining := s.inflight, s.draining
	s.mu.Unlock()
	WriteJSON(w, http.StatusOK, &HealthDoc{
		Status:   "ok",
		UptimeMS: float64(time.Since(s.started).Microseconds()) / 1000,
		InFlight: inflight,
		Queued:   int(s.queued.Load()),
		Draining: draining,
	})
}

// ReadyDoc is the /readyz payload: whether the server should receive
// traffic, with the engine health probe and open breaker circuits as
// the evidence.
type ReadyDoc struct {
	Ready       bool          `json:"ready"`
	Draining    bool          `json:"draining"`
	Engine      engine.Health `json:"engine"`
	BreakerOpen []string      `json:"breaker_open,omitempty"`
	InFlight    int           `json:"inflight"`
	Queued      int           `json:"queued"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	inflight, draining := s.inflight, s.draining
	s.mu.Unlock()
	health := s.eng.Health()
	doc := &ReadyDoc{
		Draining:    draining,
		Engine:      health,
		BreakerOpen: s.breaker.Open(),
		InFlight:    inflight,
		Queued:      int(s.queued.Load()),
	}
	// Ready means: accepting requests, and the engine's most recent run
	// (if any) produced a certified winner.
	doc.Ready = !draining && (health.Runs == 0 || health.LastOK)
	status := http.StatusOK
	if !doc.Ready {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, doc)
}
