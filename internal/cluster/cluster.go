// Package cluster is the fault-tolerant coordinator that fronts a pool
// of qod workers: it routes /optimize and /optimize/batch jobs to
// worker shards by canonical instance fingerprint over a
// consistent-hash ring, so relabeled duplicates keep landing on the
// same worker and dedup fleet-wide through that worker's canonical
// cache and singleflight.
//
// Robustness is the point — a worker can die mid-request and the fleet
// keeps its promises:
//
//   - a per-worker health state machine (healthy → suspect → down with
//     half-open probing) driven by background /readyz probes plus
//     in-band failures, the serving layer's Breaker pattern lifted to
//     whole workers;
//   - bounded failover: retries go to the next ring replica with
//     exponential backoff + jitter, gated by a global token-bucket
//     retry budget, so a down shard costs a bounded premium instead of
//     a retry storm;
//   - tail-latency hedging: when a request outlives the adaptive p95 of
//     recent upstream latencies, a duplicate is issued to the next
//     replica and the first certified answer wins, the loser cancelled
//     — safe exactly because results are certified and canonically
//     keyed;
//   - deadline propagation: the client's timeout_ms is decremented
//     across the hop, so a worker never burns budget its caller has
//     already written off.
//
// Every 200 the coordinator relays was decoded and re-validated
// (certified winner, permutation-valid sequence); undecodable or
// truncated worker responses count as upstream failures and are
// retried within budget. The chaos transport (internal/chaos.Transport)
// injects drop/delay/5xx/reset/truncate faults below the coordinator
// to prove all of this under attack.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"approxqo/internal/cluster/replica"
	"approxqo/internal/server"
	"approxqo/internal/trace"
)

// Metric names published into the configured registry. The soak tests
// assert the retry-amplification invariant: MetricAttempts ≤
// (MetricRequests + MetricBatchShapes)·(1 + ratio) + retry-budget
// burst + MetricRetryRefunded — every upstream POST is accounted,
// including hedges.
const (
	MetricRequests       = "cluster.requests"         // counter: client /optimize hits
	MetricBatchRequests  = "cluster.batch.requests"   // counter: client /optimize/batch hits
	MetricBatchJobs      = "cluster.batch.jobs"       // counter: jobs across decoded batches
	MetricBatchShapes    = "cluster.batch.shapes"     // counter: distinct fingerprints routed
	MetricAttempts       = "cluster.attempts"         // counter: upstream POSTs, retries and hedges included
	MetricRetries        = "cluster.retries"          // counter: failover retries issued (⊆ attempts)
	MetricRetryDenied    = "cluster.retry.denied"     // counter: retries/hedges refused by the budget
	MetricHedgeIssued    = "cluster.hedge.issued"     // counter: hedged duplicates launched (⊆ attempts)
	MetricHedgeWins      = "cluster.hedge.wins"       // counter: hedges that answered first
	MetricUpstreamErrors = "cluster.upstream.errors"  // counter: attempts that failed retryably
	MetricWorkerDown     = "cluster.worker.down"      // counter: healthy/suspect → down transitions
	MetricProbes         = "cluster.probes"           // counter: /readyz probes issued
	MetricInFlight       = "cluster.inflight"         // gauge: client requests being routed
	MetricUpstreamWallUS = "cluster.upstream.wall_us" // histogram: successful upstream attempt wall time (µs)
	MetricRetryRefunded  = "cluster.retry.refunded"   // counter: hedge-loser tokens returned to the budget
)

// Replication metric names. The replica soak asserts that repair
// transfers stay within the retry budget's bound (MetricRepairXfers
// withdraws ⊆ the budget invariant).
const (
	MetricRepairRounds  = "cluster.replica.repair.rounds"  // counter: anti-entropy passes started
	MetricRepairRanges  = "cluster.replica.repair.ranges"  // counter: divergent replica ranges found
	MetricRepairXfers   = "cluster.replica.repair.xfers"   // counter: repair transfers issued (each withdrew a budget token)
	MetricRepairEntries = "cluster.replica.repair.entries" // counter: entries read-repaired onto a replica
	MetricRepairDenied  = "cluster.replica.repair.denied"  // counter: transfers refused by the retry budget
)

// SpanRequest and SpanBatch name the coordinator's per-request spans
// (fields: request_id, key, worker, status, kind, attempts).
const (
	SpanRequest = "cluster.request"
	SpanBatch   = "cluster.batch"
)

// Fixed routing policy. hedgeFloor and hedgeCeil clamp the adaptive
// hedge delay (the floor doubles as the delay before enough latency
// samples accrue); hopMargin is withheld from the budget forwarded to a
// worker, so the worker answers before the coordinator gives up.
const (
	hedgeFloor = time.Millisecond
	hedgeCeil  = 2 * time.Second
	hopMargin  = 5 * time.Millisecond
)

// Config configures a Coordinator. The zero value plus a Workers list
// is usable: every other field has a production-shaped default.
type Config struct {
	// Workers are the qod worker base URLs (http://host:port) forming
	// the ring. At least one is required. Membership is fixed for the
	// coordinator's life: a dead worker's keys fail over to its ring
	// successors, and a worker restarted at its address rejoins and is
	// refilled by anti-entropy.
	Workers []string

	// Transport issues upstream requests (default http.DefaultTransport);
	// the chaos tests wrap it with a fault-injecting chaos.Transport.
	Transport http.RoundTripper

	// ProbeInterval is the background /readyz probe cadence (default
	// 500ms; negative disables probing — in-band outcomes still drive
	// the state machine). ProbeTimeout bounds one probe (default 250ms).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// DownCooldown is how long a worker marked down (DefaultDownAfter
	// consecutive in-band or probe failures) stays down before
	// half-opening (default DefaultDownCooldown).
	DownCooldown time.Duration

	// MaxRetries caps failover retries per client request (default 2).
	// Every retry also needs a token from the global retry budget:
	// DefaultRetryRatio tokens accrue per client request up to
	// RetryBurst (default DefaultRetryBurst).
	MaxRetries int
	RetryBurst int
	// BaseBackoff and MaxBackoff shape the between-retry sleep (defaults
	// 5ms / 100ms), jittered to [d/2, d).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// HedgeAfter sets the hedging trigger: 0 (default) hedges after the
	// adaptive p95 of recent upstream latencies, clamped to [hedgeFloor,
	// hedgeCeil]; a positive value is a fixed delay; negative disables
	// hedging entirely. Hedges draw from the same retry budget as
	// retries.
	HedgeAfter time.Duration

	// DefaultTimeout and MaxTimeout mirror the worker's budget policy
	// (defaults 2s / 30s): the coordinator resolves the client's budget
	// once, then forwards the remaining slice (minus hopMargin) as the
	// worker's timeout_ms on every attempt.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// Replicas is the number of ring successors each worker's certified
	// cache entries are replicated to: the coordinator names them in the
	// X-Replicate-To header of every forwarded job, and anti-entropy
	// restores that copy count after partitions and worker restarts.
	// Zero means replica.DefaultReplicas; negative disables replication
	// and repair entirely. Replication also requires ClusterSecret:
	// without one, workers keep their /cache/* surfaces closed, so
	// withDefaults forces Replicas negative rather than fanning out
	// requests every worker refuses.
	Replicas int
	// ClusterSecret is the shared secret proving cluster membership on
	// every replication exchange (replica.AuthHeader): offers, digests,
	// key/export pulls, and the X-Replicate-To hint on forwarded jobs.
	// Every fleet member must be started with the same value (qod
	// -cluster-secret). Empty disables replication.
	ClusterSecret string
	// RepairInterval is the anti-entropy cadence (default 5s; negative
	// disables the background loop — RepairOnce still works).
	RepairInterval time.Duration

	// MaxBatchJobs caps batch jobs (default server.DefaultMaxBatchJobs).
	// RetryAfter is the hint attached to coordinator-origin 502/503
	// documents (default 250ms). Client request bodies are bounded by
	// server.DefaultMaxBodyBytes, as on the workers.
	MaxBatchJobs int
	RetryAfter   time.Duration

	// Seed seeds backoff jitter and generated request IDs.
	Seed int64

	// Tracer / Metrics wire the coordinator into the observability
	// layer; nil disables either.
	Tracer  *trace.Tracer
	Metrics *trace.Registry
}

func (c Config) withDefaults() Config {
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 250 * time.Millisecond
	}
	if c.DownCooldown <= 0 {
		c.DownCooldown = DefaultDownCooldown
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 2
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 5 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 100 * time.Millisecond
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.Replicas == 0 {
		c.Replicas = replica.DefaultReplicas
	}
	if c.ClusterSecret == "" {
		// Workers refuse unauthenticated replication traffic, so a
		// secretless fleet runs with replication off instead of fanning
		// out exchanges every peer rejects.
		c.Replicas = -1
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = 5 * time.Second
	}
	if c.MaxBatchJobs <= 0 {
		c.MaxBatchJobs = server.DefaultMaxBatchJobs
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	return c
}

// Coordinator routes optimization requests across the worker ring.
// Build with New; serve via Handler (tests) or ListenAndServe (qod
// coordinator mode, which also starts the prober).
type Coordinator struct {
	cfg    Config
	ring   *Ring
	health *healthBoard
	budget *retryBudget
	lat    *latencyTracker
	client *http.Client

	ridSeq atomic.Int64
	ridTag string

	jmu sync.Mutex
	rng *rand.Rand

	inflight atomic.Int64
	draining atomic.Bool
	started  time.Time
}

// New builds a Coordinator over the configured worker pool.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: Config.Workers must name at least one worker")
	}
	c := &Coordinator{
		cfg:     cfg,
		ring:    NewRing(cfg.Workers, DefaultVirtualNodes),
		budget:  newRetryBudget(DefaultRetryRatio, cfg.RetryBurst),
		lat:     newLatencyTracker(),
		client:  &http.Client{Transport: cfg.Transport},
		ridTag:  fmt.Sprintf("%08x", ringHash(strconv.FormatInt(cfg.Seed, 10))&0xffffffff),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		started: time.Now(),
	}
	c.health = newHealthBoard(DefaultDownAfter, cfg.DownCooldown, func(string) {
		cfg.Metrics.Counter(MetricWorkerDown).Inc()
	})
	return c, nil
}

// BeginDrain marks the coordinator as draining: /readyz reports
// draining:true (and stays 200 while requests are in flight, so a
// load balancer sees a deliberate drain rather than a flapping
// failure) and stops claiming readiness once the last request ends.
func (c *Coordinator) BeginDrain() { c.draining.Store(true) }

// Handler returns the coordinator's panic-isolated HTTP handler:
// /optimize and /optimize/batch route to workers; /healthz and /readyz
// report the coordinator's own liveness and the fleet's health.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/optimize", c.handleOptimize)
	mux.HandleFunc("/optimize/batch", c.handleBatch)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/readyz", c.handleReadyz)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				server.WriteErrorDoc(w, r.Header.Get(server.RequestIDHeader), http.StatusInternalServerError,
					"panic", fmt.Sprintf("internal error: %v", p), 0)
			}
		}()
		mux.ServeHTTP(w, r)
	})
}

// StartProbes launches the background /readyz prober; it stops when
// ctx is cancelled. A non-positive ProbeInterval makes this a no-op.
func (c *Coordinator) StartProbes(ctx context.Context) {
	if c.cfg.ProbeInterval <= 0 {
		return
	}
	go c.probeLoop(ctx)
}

// ListenAndServe serves on addr with probing and anti-entropy repair
// active until ctx is cancelled, then drains: /readyz flips to
// draining:true first (staying 200 while requests finish), and the
// listener shuts down within a short drain window.
func (c *Coordinator) ListenAndServe(ctx context.Context, addr string) error {
	c.StartProbes(ctx)
	c.StartRepair(ctx)
	hs := &http.Server{Addr: addr, Handler: c.Handler()}
	errC := make(chan error, 1)
	go func() { errC <- hs.ListenAndServe() }()
	select {
	case err := <-errC:
		return err
	case <-ctx.Done():
	}
	c.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func (c *Coordinator) probeLoop(ctx context.Context) {
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.probeAll(ctx)
		}
	}
}

// probeAll probes every ring member's /readyz in parallel, feeding
// outcomes into the health board. Down workers are probed only once
// their cooldown has lapsed, so the probe is the half-open trial.
func (c *Coordinator) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range c.ring.Workers() {
		if !c.health.routable(w) {
			continue // down and cooling: leave the circuit closed
		}
		wg.Add(1)
		go func(worker string) {
			defer wg.Done()
			c.cfg.Metrics.Counter(MetricProbes).Inc()
			pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, worker+"/readyz", nil)
			if err != nil {
				c.health.observe(worker, false)
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				c.health.observe(worker, false)
				return
			}
			resp.Body.Close()
			c.health.observe(worker, resp.StatusCode == http.StatusOK)
		}(w)
	}
	wg.Wait()
}

// backoff computes the jittered sleep before retry attempt (0-based).
func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.cfg.BaseBackoff << uint(attempt)
	if d <= 0 || d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	c.jmu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d/2) + 1))
	c.jmu.Unlock()
	return d/2 + j
}

// nextRequestID generates a coordinator-origin request ID for clients
// that sent none.
func (c *Coordinator) nextRequestID() string {
	return "co-" + c.ridTag + "-" + strconv.FormatInt(c.ridSeq.Add(1), 16)
}

// hedgeDelay resolves the hedging trigger for one request: negative
// means disabled, a fixed HedgeAfter is used as-is, otherwise the
// adaptive p95.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.cfg.HedgeAfter < 0 {
		return -1
	}
	if c.cfg.HedgeAfter > 0 {
		return c.cfg.HedgeAfter
	}
	return c.lat.p95(hedgeFloor, hedgeFloor, hedgeCeil)
}

// HealthDoc is the coordinator's /healthz payload.
type HealthDoc struct {
	Status   string  `json:"status"`
	UptimeMS float64 `json:"uptime_ms"`
	InFlight int     `json:"inflight"`
	Workers  int     `json:"workers"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, &HealthDoc{
		Status:   "ok",
		UptimeMS: float64(time.Since(c.started).Microseconds()) / 1000,
		InFlight: int(c.inflight.Load()),
		Workers:  c.ring.Size(),
	})
}

// ReadyDoc is the coordinator's /readyz payload: ready while at least
// one worker is routable and the coordinator is not draining.
type ReadyDoc struct {
	Ready    bool           `json:"ready"`
	Draining bool           `json:"draining"`
	InFlight int            `json:"inflight"`
	Workers  []WorkerStatus `json:"workers"`
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	workers := c.ring.Workers()
	doc := &ReadyDoc{
		Draining: c.draining.Load(),
		InFlight: int(c.inflight.Load()),
		Workers:  c.health.snapshot(workers),
	}
	fleetUp := false
	for _, ws := range workers {
		if c.health.stateOf(ws) != StateDown {
			fleetUp = true
			break
		}
	}
	doc.Ready = fleetUp && !doc.Draining
	status := http.StatusOK
	if !doc.Ready {
		status = http.StatusServiceUnavailable
	}
	if doc.Draining && doc.InFlight > 0 && fleetUp {
		// Mid-drain with work still in flight: report 200 with
		// draining:true and the per-worker states instead of flapping to
		// 503 while the remaining requests are being answered.
		status = http.StatusOK
	}
	server.WriteJSON(w, status, doc)
}
