// Coordinator chaos soak: a fleet of loadgen clients hammers a
// coordinator over three real qod workers while the network path
// injects drop/5xx/reset/truncate/delay faults at a low rate AND one
// worker is killed mid-load. The ring keeps the dead worker, so its
// keys fail over to their ring successors while the health board marks
// it down. The contract under test is the cluster's core promise:
// every 200 relayed to a client is a certified, permutation-valid
// plan; every failure is a structured document; upstream attempts stay
// inside the retry budget's amplification bound; relabeled duplicates
// keep routing to one shard. Race-clean (go test -race).
package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"approxqo/internal/chaos"
	"approxqo/internal/qon"
	"approxqo/internal/server"
	"approxqo/internal/server/loadgen"
	"approxqo/internal/trace"
	"approxqo/internal/workload"
)

const (
	csoakClients  = 24
	csoakReqsPerC = 6
	csoakWorkers  = 3
	csoakKillAt   = (csoakClients * csoakReqsPerC) / 2 // responses before the worker kill
)

func csoakWorker(t *testing.T, seed int64) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(server.Config{
		MaxConcurrent:  4,
		QueueDepth:     csoakClients * 2,
		DegradeAt:      csoakClients,
		DefaultTimeout: 10 * time.Second,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts
}

// csoakCheck200 asserts the certified-permutation contract on one
// relayed 200 — the soak's "zero uncertified 200s" clause.
func csoakCheck200(res *server.Result) error {
	if res == nil || res.Report == nil || res.Report.Best == nil {
		return fmt.Errorf("200 without a winning plan")
	}
	best := res.Report.Best
	if !best.Certified {
		return fmt.Errorf("uncertified winner %q relayed as 200", best.Winner)
	}
	if got := len(best.Sequence); got != res.N {
		return fmt.Errorf("winning sequence has %d relations, instance has %d", got, res.N)
	}
	seen := make([]bool, res.N)
	for _, r := range best.Sequence {
		if r < 0 || r >= res.N || seen[r] {
			return fmt.Errorf("winning sequence %v is not a permutation", best.Sequence)
		}
		seen[r] = true
	}
	return nil
}

// csoakCheckFailure asserts every non-200 the coordinator hands a
// client is a structured document with a sane status.
func csoakCheckFailure(status int, doc *server.ErrorDoc) error {
	if doc == nil || doc.Error.Kind == "" {
		return fmt.Errorf("status %d without a structured error document", status)
	}
	switch status {
	case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return nil
	}
	return fmt.Errorf("unexpected status %d (kind %q: %s)", status, doc.Error.Kind, doc.Error.Message)
}

func TestSoakCoordinatorChaosWithWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	workers := make([]*server.Server, csoakWorkers)
	listeners := make([]*httptest.Server, csoakWorkers)
	urls := make([]string, csoakWorkers)
	for i := range workers {
		workers[i], listeners[i] = csoakWorker(t, int64(300+i))
		urls[i] = listeners[i].URL
		defer listeners[i].Close()
	}

	// Low-rate faults across the whole fleet: the first matching firing
	// rule wins, so each request draws one fault kind at most. Delay is
	// short — tail latency for the hedger, not an outage.
	transport := chaos.NewTransport(nil, []chaos.NetRule{
		{Fault: chaos.NetDrop},
		{Fault: chaos.Net5xx},
		{Fault: chaos.NetReset},
		{Fault: chaos.NetTruncate},
		{Fault: chaos.NetDelay},
	}, chaos.WithNetSeed(9), chaos.WithNetRate(0.02), chaos.WithNetDelay(10*time.Millisecond))

	reg := trace.NewRegistry()
	co, err := New(Config{
		Workers:       urls,
		Transport:     transport,
		ProbeInterval: 20 * time.Millisecond,
		DownCooldown:  100 * time.Millisecond,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    8 * time.Millisecond,
		HedgeAfter:    0, // adaptive p95
		Seed:          13,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	co.StartProbes(ctx)
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	var (
		answered    atomic.Int64
		oks         atomic.Int64
		rejected    atomic.Int64
		cacheHits   atomic.Int64
		postKillOKs atomic.Int64
		killed      atomic.Bool
		killGate    = make(chan struct{})
		gateOnce    sync.Once
		wg          sync.WaitGroup
	)
	errC := make(chan error, csoakClients*csoakReqsPerC)
	record := func(i, j int, ok bool, err error) {
		if answered.Add(1) == csoakKillAt {
			gateOnce.Do(func() { close(killGate) })
		}
		if ok {
			oks.Add(1)
			if killed.Load() {
				postKillOKs.Add(1)
			}
		} else {
			rejected.Add(1)
		}
		if err != nil {
			errC <- fmt.Errorf("client %d request %d: %v", i, j, err)
		}
	}

	for i := 0; i < csoakClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := loadgen.New(cts.URL, int64(4000+i))
			c.Retries = 4
			c.BaseBackoff = time.Millisecond
			c.MaxBackoff = 10 * time.Millisecond
			rng := rand.New(rand.NewSource(int64(7000 + i)))
			base, err := workload.Generate(workload.Params{
				N: 5 + i%3, Shape: workload.Chain, Seed: int64(100 + i),
			})
			if err != nil {
				errC <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			for j := 0; j < csoakReqsPerC; j++ {
				switch {
				case j%3 == 2: // batch with planted duplicates
					jobs, _, err := loadgen.PlantedBatch(int64(9000+i*10+j), 6)
					if err != nil {
						record(i, j, false, err)
						continue
					}
					out, err := c.OptimizeBatch(ctx, &server.BatchRequest{Jobs: jobs})
					if err != nil {
						record(i, j, false, fmt.Errorf("batch transport: %v", err))
						continue
					}
					if !out.OK() {
						record(i, j, false, csoakCheckFailure(out.Status, out.ErrDoc))
						continue
					}
					var jobErr error
					for k, item := range out.Response.Results {
						if item.Error != nil {
							if item.Error.Kind == "" {
								jobErr = fmt.Errorf("job %d: error document without a kind", k)
							}
							continue
						}
						if err := csoakCheck200(item.Result); err != nil {
							jobErr = fmt.Errorf("job %d: %v", k, err)
						}
					}
					record(i, j, true, jobErr)
				default: // single requests: the base instance, then relabelings
					in := base
					if j > 0 {
						in = qon.Relabel(base, rng.Perm(base.N()))
					}
					out, err := c.Optimize(ctx, &server.Request{Job: &server.Job{Instance: in, TimeoutMS: 20_000}})
					if err != nil {
						record(i, j, false, fmt.Errorf("transport: %v", err))
						continue
					}
					if !out.OK() {
						record(i, j, false, csoakCheckFailure(out.Status, out.ErrDoc))
						continue
					}
					if out.Result.Cached {
						cacheHits.Add(1)
					}
					record(i, j, true, csoakCheck200(out.Result))
				}
			}
		}(i)
	}

	// Kill worker 0 mid-load without touching the ring: its keys must
	// fail over to the successors under fire.
	select {
	case <-killGate:
	case <-ctx.Done():
		t.Fatal("soak stalled before the kill point")
	}
	killed.Store(true)
	listeners[0].Close()

	wg.Wait()
	close(errC)
	failures := 0
	for err := range errC {
		failures++
		if failures <= 20 {
			t.Error(err)
		}
	}
	if failures > 20 {
		t.Errorf("... and %d more failures", failures-20)
	}

	total := answered.Load()
	if total != csoakClients*csoakReqsPerC {
		t.Fatalf("fleet sent %d requests but observed %d responses", csoakClients*csoakReqsPerC, total)
	}
	if oks.Load() == 0 {
		t.Fatal("soak produced zero successful responses")
	}
	if postKillOKs.Load() == 0 {
		t.Error("no successes after the worker kill: failover did not absorb the dead worker")
	}

	// Relabeled duplicates route to one shard: the ring key is a pure
	// function of the canonical fingerprint, which relabeling preserves.
	base, err := workload.Generate(workload.Params{N: 6, Shape: workload.Chain, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	keyOf := func(in *qon.Instance) string {
		req := &server.Request{Job: &server.Job{Instance: in}}
		return routeKey(req, nil)
	}
	want := keyOf(base)
	for k := 0; k < 4; k++ {
		if got := keyOf(qon.Relabel(base, rng.Perm(6))); got != want {
			t.Fatalf("relabeling %d ring key %q != base %q: duplicates would scatter", k, got, want)
		}
	}
	if cacheHits.Load() == 0 {
		t.Error("no cache hits fleet-wide: duplicate routing never reached a warm shard")
	}

	// Retry amplification stays inside the token-bucket bound: every
	// upstream POST beyond the per-request/per-group primary was paid
	// for by the budget (deposits + burst + refunded hedge losers).
	requests := reg.Counter(MetricRequests).Value()
	groups := reg.Counter(MetricBatchShapes).Value()
	attempts := reg.Counter(MetricAttempts).Value()
	refunded := reg.Counter(MetricRetryRefunded).Value()
	bound := float64(requests+groups)*(1+DefaultRetryRatio) + DefaultRetryBurst + float64(refunded)
	if float64(attempts) > bound+1 {
		t.Errorf("attempts=%d exceeds the budget bound %.0f (requests=%d groups=%d refunded=%d)",
			attempts, bound, requests, groups, refunded)
	}
	issued := reg.Counter(MetricHedgeIssued).Value()
	wins := reg.Counter(MetricHedgeWins).Value()
	if wins > issued {
		t.Errorf("hedge.wins=%d > hedge.issued=%d", wins, issued)
	}
	if issued > attempts {
		t.Errorf("hedge.issued=%d > attempts=%d", issued, attempts)
	}
	// A handler drops the gauge on its deferred exit, which can run just
	// after its client has read a Content-Length body in full (batch
	// responses): wait for the drain, so only a leaked count fails.
	for deadline := time.Now().Add(5 * time.Second); reg.Gauge(MetricInFlight).Value() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if v := reg.Gauge(MetricInFlight).Value(); v != 0 {
		t.Errorf("inflight gauge %d after the fleet drained, want 0", v)
	}
	t.Logf("soak: %d responses (%d ok, %d rejected, %d cached, %d post-kill ok); attempts=%d of bound %.0f (refunded %d); hedges %d issued / %d won; retries=%d denied=%d",
		total, oks.Load(), rejected.Load(), cacheHits.Load(), postKillOKs.Load(),
		attempts, bound, refunded, issued, wins,
		reg.Counter(MetricRetries).Value(), reg.Counter(MetricRetryDenied).Value())
}
