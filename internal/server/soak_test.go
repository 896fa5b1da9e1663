// Chaos soak: a fleet of ≥64 seeded loadgen clients hammers an
// in-process server whose every ensemble is wrapped with panic, stall
// and wrongcost faults, while the server is drained mid-load. The
// contract under test is the serving layer's core promise: every 200 is
// a certified, valid plan; every rejection is a structured 429/503
// document; graceful shutdown drains with zero dropped in-flight
// requests. The test is race-clean (go test -race ./internal/server).
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"approxqo/internal/chaos"
	"approxqo/internal/engine"
	"approxqo/internal/server"
	"approxqo/internal/server/loadgen"
	"approxqo/internal/trace"
)

const (
	soakClients     = 64
	soakReqsPerC    = 4
	soakChaosSpec   = "panic:greedy-min-cost,stall:kbz,wrongcost:greedy-min-size"
	soakStall       = 3 * time.Millisecond
	soakDrainAfter  = (soakClients * soakReqsPerC) / 2 // responses before Shutdown fires
	soakMaxParallel = 4
)

// soakFaults holds, per injected fault of soakChaosSpec, the evidence in
// a served run record that it fired. All three targets are greedy-tier
// members, which both rungs run; the local tier (annealing, say) is
// left out of full-rung ensembles whenever the serial DP is in reach,
// and probeSoakFaults fails the soak for a fault aimed there.
var soakFaults = map[string]func(engine.RunRecord) bool{
	"panic:greedy-min-cost": func(r engine.RunRecord) bool { return r.Name == "greedy-min-cost" && r.Panicked },
	"stall:kbz": func(r engine.RunRecord) bool {
		return r.Name == "kbz" && r.WallMS >= float64(soakStall.Milliseconds())
	},
	"wrongcost:greedy-min-size": func(r engine.RunRecord) bool {
		return r.Name == "greedy-min-size" && strings.Contains(r.CertError, "does not match")
	},
}

// exactNames are the exact optimizers the heuristic rung must never
// run: the serving ensemble's exact members (subset-dp up to n=16,
// subset-dp-parallel above) plus the no-cross DP, which is kept out of
// serving altogether.
var exactNames = map[string]bool{
	"subset-dp":          true,
	"subset-dp-no-cross": true,
	"subset-dp-parallel": true,
}

// soakRequest picks the j-th request of client i: mostly workload
// specs across shapes and sizes, with inline QO_H and deliberately
// invalid requests mixed in.
func soakRequest(t *testing.T, i, j int) (*server.Request, bool) {
	t.Helper()
	k := i*soakReqsPerC + j
	switch {
	case k%16 == 7: // invalid: two instance sources → 400
		var req server.Request
		body := `{"job":{"workload":{"shape":"chain","n":5},` +
			`"qoh_instance":{"query_graph":{"n":3,"edges":[[0,1],[1,2]]},` +
			`"sizes":["8","8","8"],"selectivities":[["1","0.5","1"],["0.5","1","0.5"],["1","0.5","1"]],"memory":"6"}}}`
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("building invalid request: %v", err)
		}
		return &req, false
	case k%16 == 3: // inline QO_H
		var req server.Request
		body := `{"job":{"model":"qoh","qoh_instance":{"query_graph":{"n":3,"edges":[[0,1],[1,2]]},` +
			`"sizes":["8","8","8"],"selectivities":[["1","0.5","1"],["0.5","1","0.5"],["1","0.5","1"]],"memory":"6"}}}`
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("building qoh request: %v", err)
		}
		return &req, true
	default:
		shapes := []string{"chain", "star", "cycle", "random"}
		return &server.Request{Job: &server.Job{
			Workload: &server.WorkloadSpec{
				Shape:    shapes[k%len(shapes)],
				N:        4 + k%4,
				Seed:     int64(k),
				EdgeProb: 0.5,
			},
			TimeoutMS: 10_000,
		}}, true
	}
}

// checkSuccess asserts the serving contract on one 200 response.
func checkSuccess(res *server.Result, wantQOH bool) error {
	if res == nil || res.Report == nil {
		return fmt.Errorf("200 without a result document")
	}
	best := res.Report.Best
	if best == nil {
		return fmt.Errorf("200 without a winning plan")
	}
	if !best.Certified {
		return fmt.Errorf("uncertified winner %q served as 200", best.Winner)
	}
	// The permanently faulted optimizers can never produce a certified
	// winner: greedy-min-cost always panics, greedy-min-size always lies
	// about its cost and fails the audit.
	if best.Winner == "greedy-min-cost" || best.Winner == "greedy-min-size" {
		if !wantQOH {
			return fmt.Errorf("chaos-wrapped optimizer %q won", best.Winner)
		}
	}
	if got := len(best.Sequence); got != res.N {
		return fmt.Errorf("winning sequence has %d relations, instance has %d", got, res.N)
	}
	seen := make([]bool, res.N)
	for _, r := range best.Sequence {
		if r < 0 || r >= res.N || seen[r] {
			return fmt.Errorf("winning sequence %v is not a permutation of 0..%d", best.Sequence, res.N-1)
		}
		seen[r] = true
	}
	if res.Degraded != (res.Rung == "heuristic") {
		return fmt.Errorf("degraded=%v disagrees with rung %q", res.Degraded, res.Rung)
	}
	if res.Degraded && !wantQOH {
		for _, run := range res.Report.Runs {
			if exactNames[run.Name] {
				return fmt.Errorf("degraded response ran exact optimizer %q", run.Name)
			}
		}
	}
	return nil
}

// checkCertifiedPlan asserts the chaos-free serving contract on one 200
// response: a certified winner whose sequence is a valid permutation,
// with degraded/rung agreement. It does not restrict the winner —
// that check belongs to the chaos soak, where specific optimizers are
// permanently faulted.
func checkCertifiedPlan(res *server.Result) error {
	if res == nil || res.Report == nil {
		return fmt.Errorf("200 without a result document")
	}
	best := res.Report.Best
	if best == nil {
		return fmt.Errorf("200 without a winning plan")
	}
	if !best.Certified {
		return fmt.Errorf("uncertified winner %q served as 200", best.Winner)
	}
	if got := len(best.Sequence); got != res.N {
		return fmt.Errorf("winning sequence has %d relations, instance has %d", got, res.N)
	}
	seen := make([]bool, res.N)
	for _, r := range best.Sequence {
		if r < 0 || r >= res.N || seen[r] {
			return fmt.Errorf("winning sequence %v is not a permutation of 0..%d", best.Sequence, res.N-1)
		}
		seen[r] = true
	}
	if res.Degraded != (res.Rung == "heuristic") {
		return fmt.Errorf("degraded=%v disagrees with rung %q", res.Degraded, res.Rung)
	}
	return nil
}

// checkRejection asserts the serving contract on one non-200 response.
func checkRejection(out *loadgen.Outcome, wantOK bool) error {
	if out.ErrDoc == nil || out.ErrDoc.Error.Kind == "" {
		return fmt.Errorf("status %d without a structured error document", out.Status)
	}
	kind := out.ErrDoc.Error.Kind
	switch out.Status {
	case http.StatusBadRequest:
		if wantOK {
			return fmt.Errorf("valid request rejected as %q: %s", kind, out.ErrDoc.Error.Message)
		}
		if kind != "bad_request" {
			return fmt.Errorf("400 with kind %q", kind)
		}
	case http.StatusTooManyRequests:
		if kind != "overloaded" {
			return fmt.Errorf("429 with kind %q", kind)
		}
	case http.StatusServiceUnavailable:
		if kind != "shed" && kind != "draining" && kind != "queue_deadline" {
			return fmt.Errorf("503 with kind %q", kind)
		}
	default:
		return fmt.Errorf("unexpected status %d (kind %q: %s)", out.Status, kind, out.ErrDoc.Error.Message)
	}
	return nil
}

// soakConfig is the chaos soak's server configuration.
func soakConfig(reg *trace.Registry) server.Config {
	return server.Config{
		MaxConcurrent:  soakMaxParallel,
		QueueDepth:     3 * soakMaxParallel,
		DegradeAt:      soakMaxParallel,
		DefaultTimeout: 10 * time.Second,
		DrainTimeout:   10 * time.Second,
		RetryAfter:     2 * time.Millisecond,
		Seed:           42,
		ChaosSpec:      soakChaosSpec,
		ChaosOptions:   []chaos.Option{chaos.WithStall(soakStall)},
		EngineGrace:    25 * time.Millisecond,
		Metrics:        reg,
	}
}

// probeSoakFaults checks, before the fleet starts, that every injected
// fault fires in a full-rung report. A fault aimed at a member the full
// rung does not run would make the soak vacuous there. Under load the
// fleet's few full-rung requests may all degrade, and the breaker
// benches the faulted members after their third failure, so the fleet's
// own reports cannot be the evidence. Each fault instead gets one
// request of the fleet's workload mix, alone on a fresh server
// configured like the soak's: at zero load it is served on the full
// rung with every breaker circuit closed.
func probeSoakFaults(t *testing.T) {
	t.Helper()
	faults := make([]string, 0, len(soakFaults))
	for fault := range soakFaults {
		faults = append(faults, fault)
	}
	sort.Strings(faults)
	for k, fault := range faults {
		s, err := server.New(soakConfig(trace.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		req, _ := soakRequest(t, 0, k)
		if req.Workload == nil {
			t.Fatalf("probe request %d is not a workload request of the fleet's mix", k)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body)))
		var res server.Result
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &res) != nil || res.Report == nil {
			t.Fatalf("probe for fault %q: status %d: %s", fault, w.Code, w.Body.Bytes())
		}
		if res.Degraded {
			t.Fatalf("probe for fault %q was served degraded at zero load", fault)
		}
		fired := false
		for _, run := range res.Report.Runs {
			fired = fired || soakFaults[fault](run)
		}
		if !fired {
			t.Errorf("injected fault %q never fired in a full-rung report", fault)
		}
	}
}

func TestSoakChaosFleetWithMidLoadDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	probeSoakFaults(t)
	reg := trace.NewRegistry()
	s, err := server.New(soakConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var (
		answered  atomic.Int64 // responses observed fleet-wide
		oks       atomic.Int64
		degraded  atomic.Int64
		rejected  atomic.Int64
		drainGate = make(chan struct{}) // closed once, at the half-way mark
		gateOnce  sync.Once
		wg        sync.WaitGroup
	)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	errC := make(chan error, soakClients*soakReqsPerC)
	for i := 0; i < soakClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := loadgen.New(ts.URL, int64(1000+i))
			c.Retries = 5
			c.BaseBackoff = time.Millisecond
			c.MaxBackoff = 20 * time.Millisecond
			for j := 0; j < soakReqsPerC; j++ {
				req, wantOK := soakRequest(t, i, j)
				out, err := c.Optimize(ctx, req)
				if err != nil {
					errC <- fmt.Errorf("client %d request %d: %v", i, j, err)
					return
				}
				if answered.Add(1) == soakDrainAfter {
					gateOnce.Do(func() { close(drainGate) })
				}
				if out.OK() {
					oks.Add(1)
					if out.Result.Degraded {
						degraded.Add(1)
					}
					if err := checkSuccess(out.Result, req.QOHInstance != nil && wantOK); err != nil {
						errC <- fmt.Errorf("client %d request %d: %v", i, j, err)
					}
					continue
				}
				rejected.Add(1)
				if err := checkRejection(out, wantOK); err != nil {
					errC <- fmt.Errorf("client %d request %d: %v", i, j, err)
				}
			}
		}(i)
	}

	// Drain mid-load: half the fleet's responses are in, the other half
	// of the traffic is still arriving or in flight.
	select {
	case <-drainGate:
	case <-ctx.Done():
		t.Fatal("soak stalled before reaching the drain point")
	}
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer drainCancel()
	if err := s.Shutdown(drainCtx); err != nil {
		t.Fatalf("graceful shutdown dropped in-flight requests: %v", err)
	}
	if n := s.InFlight(); n != 0 {
		t.Fatalf("drain completed with %d request(s) still in flight", n)
	}

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
	if total != soakClients*soakReqsPerC {
		t.Fatalf("fleet sent %d requests but observed %d responses: requests were dropped",
			soakClients*soakReqsPerC, total)
	}
	if oks.Load() == 0 {
		t.Fatal("soak produced zero successful responses")
	}
	t.Logf("soak: %d responses (%d ok, %d degraded, %d rejected)",
		total, oks.Load(), degraded.Load(), rejected.Load())
	// Server-side accounting must balance: the fleet only POSTs, so
	// every hit was either admitted or rejected at admission (decode
	// failures are a subset of accepted), and the load gauges returned
	// to zero.
	requests := reg.Counter(server.MetricRequests).Value()
	accepted := reg.Counter(server.MetricAccepted).Value()
	rej := reg.Counter(server.MetricRejected).Value()
	bad := reg.Counter(server.MetricBadRequest).Value()
	if requests != accepted+rej {
		t.Errorf("admission invariant broken: requests=%d != accepted=%d + rejected=%d",
			requests, accepted, rej)
	}
	if bad > accepted {
		t.Errorf("bad_request=%d exceeds accepted=%d: decode failures counted outside admission", bad, accepted)
	}
	if v := reg.Gauge(server.MetricInFlight).Value(); v != 0 {
		t.Errorf("inflight gauge %d after drain, want 0", v)
	}
	if v := reg.Gauge(server.MetricQueueDepth).Value(); v != 0 {
		t.Errorf("queue depth gauge %d after drain, want 0", v)
	}
	if reg.Counter(server.MetricPanics).Value() != 0 {
		t.Error("handler panics escaped the engine's panic isolation")
	}
}

// Batch dedup under load: a fleet of batch clients, each carrying a
// seeded job mix with planted relabeled duplicates, hammers one server.
// Every job must come back certified and permutation-valid, every batch
// must report exactly its planted distinct-instance count as shapes
// (canonical dedup collapses the duplicates, nothing else collides),
// and the engine must run at most once per distinct shape fleet-wide.
func TestSoakBatchFleetDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		batchClients = 8
		batchJobs    = 12
	)
	reg := trace.NewRegistry()
	s, err := server.New(server.Config{
		MaxConcurrent:  soakMaxParallel,
		QueueDepth:     batchClients * batchJobs, // admit every group; dedup, not shedding, is under test
		DegradeAt:      batchClients * batchJobs,
		DefaultTimeout: 10 * time.Second,
		MaxBatchJobs:   batchJobs,
		Seed:           17,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var (
		wg            sync.WaitGroup
		totalDistinct atomic.Int64
	)
	errC := make(chan error, batchClients*batchJobs)
	for i := 0; i < batchClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs, distinct, err := loadgen.PlantedBatch(int64(500+i), batchJobs)
			if err != nil {
				errC <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			totalDistinct.Add(int64(distinct))
			c := loadgen.New(ts.URL, int64(2000+i))
			c.BaseBackoff = time.Millisecond
			c.MaxBackoff = 20 * time.Millisecond
			out, err := c.OptimizeBatch(ctx, &server.BatchRequest{Jobs: jobs})
			if err != nil {
				errC <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			if !out.OK() {
				errC <- fmt.Errorf("client %d: batch status %d (%+v)", i, out.Status, out.ErrDoc)
				return
			}
			br := out.Response
			if br.Jobs != batchJobs || br.Shapes != distinct {
				errC <- fmt.Errorf("client %d: jobs/shapes = %d/%d, want %d/%d",
					i, br.Jobs, br.Shapes, batchJobs, distinct)
			}
			for j, item := range br.Results {
				if item.Error != nil {
					errC <- fmt.Errorf("client %d job %d: %+v", i, j, item.Error)
					continue
				}
				// Unlike the chaos soak, no optimizer is faulted here, so
				// any certified winner is legitimate — check the certified
				// permutation contract, not the winner identity.
				if err := checkCertifiedPlan(item.Result); err != nil {
					errC <- fmt.Errorf("client %d job %d: %v", i, j, err)
					continue
				}
				if item.Result.Fingerprint == "" {
					errC <- fmt.Errorf("client %d job %d: no fingerprint on a batch result", i, j)
				}
			}
		}(i)
	}
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

	// The engine-run bound is the batch API's whole point: planted
	// duplicates never reach the engine, and cross-batch repeats are
	// absorbed by the canonical cache.
	if runs, distinct := s.Engine().Health().Runs, totalDistinct.Load(); runs > distinct {
		t.Errorf("engine ran %d times for %d distinct shapes", runs, distinct)
	}
	if jobs := reg.Counter(server.MetricBatchJobs).Value(); jobs != batchClients*batchJobs {
		t.Errorf("batch jobs counter = %d, want %d", jobs, batchClients*batchJobs)
	}
	if v := reg.Gauge(server.MetricInFlight).Value(); v != 0 {
		t.Errorf("inflight gauge %d after the fleet drained, want 0", v)
	}
}
