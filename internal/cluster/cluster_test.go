// Coordinator integration tests: real qod workers behind httptest, a
// real coordinator in front, deterministic network faults in between.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"approxqo/internal/chaos"
	"approxqo/internal/cluster"
	"approxqo/internal/qon"
	"approxqo/internal/server"
	"approxqo/internal/server/loadgen"
	"approxqo/internal/trace"
	"approxqo/internal/workload"
)

// worker is one live qod worker: the serving layer plus its test
// listener.
type worker struct {
	srv *server.Server
	ts  *httptest.Server
}

func (w *worker) host() string { return strings.TrimPrefix(w.ts.URL, "http://") }

func newWorker(t *testing.T, seed int64) *worker {
	t.Helper()
	s, err := server.New(server.Config{
		MaxConcurrent:  4,
		QueueDepth:     64,
		DegradeAt:      64,
		DefaultTimeout: 10 * time.Second,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &worker{srv: s, ts: ts}
}

func newFleet(t *testing.T, n int) []*worker {
	t.Helper()
	out := make([]*worker, n)
	for i := range out {
		out[i] = newWorker(t, int64(100+i))
	}
	return out
}

func fleetURLs(ws []*worker) []string {
	urls := make([]string, len(ws))
	for i, w := range ws {
		urls[i] = w.ts.URL
	}
	return urls
}

func fleetRuns(ws []*worker) int64 {
	var runs int64
	for _, w := range ws {
		runs += w.srv.Engine().Health().Runs
	}
	return runs
}

// checkCertified asserts the serving contract on one relayed 200: a
// certified winner whose sequence is a valid permutation.
func checkCertified(res *server.Result) error {
	if res == nil || res.Report == nil || res.Report.Best == nil {
		return fmt.Errorf("200 without a winning plan")
	}
	best := res.Report.Best
	if !best.Certified {
		return fmt.Errorf("uncertified winner %q served as 200", best.Winner)
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

func workloadReq(seed int64, n int) *server.Request {
	return &server.Request{Job: &server.Job{
		Workload:  &server.WorkloadSpec{Shape: "chain", N: n, Seed: seed, EdgeProb: 0.5},
		TimeoutMS: 20_000,
	}}
}

func TestCoordinatorRelaysCertifiedResult(t *testing.T) {
	fleet := newFleet(t, 2)
	co, err := cluster.New(cluster.Config{
		Workers:       fleetURLs(fleet),
		ProbeInterval: -1,
		HedgeAfter:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	c := loadgen.New(cts.URL, 1)
	for i := 0; i < 4; i++ {
		out, err := c.Optimize(context.Background(), workloadReq(int64(i), 5))
		if err != nil {
			t.Fatal(err)
		}
		if !out.OK() {
			t.Fatalf("request %d: status %d (%+v)", i, out.Status, out.ErrDoc)
		}
		if err := checkCertified(out.Result); err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(cts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// The coordinator forwards each job's route override to the worker on
// both endpoints: behind a worker whose routing default is off, a
// route:true job comes back with the router's decision and a
// route:false job without one.
func TestCoordinatorForwardsRouteOverride(t *testing.T) {
	fleet := newFleet(t, 1) // server.Config.Route defaults to false
	co, err := cluster.New(cluster.Config{
		Workers:       fleetURLs(fleet),
		ProbeInterval: -1,
		HedgeAfter:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()
	c := loadgen.New(cts.URL, 1)
	job := func(seed int64, route bool) *server.Job {
		j := workloadReq(seed, 6).Job
		j.Route = &route
		return j
	}
	check := func(what string, res *server.Result, route bool) {
		t.Helper()
		if err := checkCertified(res); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := res.Routing != nil; got != route {
			t.Errorf("%s: routing set = %v, want %v", what, got, route)
		}
	}

	for i, route := range []bool{true, false} {
		out, err := c.Optimize(context.Background(), &server.Request{Job: job(int64(40+i), route)})
		if err != nil {
			t.Fatal(err)
		}
		if !out.OK() {
			t.Fatalf("/optimize route=%v: status %d (%+v)", route, out.Status, out.ErrDoc)
		}
		check(fmt.Sprintf("/optimize route=%v", route), out.Result, route)
	}

	out, err := c.OptimizeBatch(context.Background(), &server.BatchRequest{
		Jobs: []*server.Job{job(50, true), job(51, false)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("/optimize/batch: status %d (%+v)", out.Status, out.ErrDoc)
	}
	for k, route := range []bool{true, false} {
		item := out.Response.Results[k]
		if item.Error != nil {
			t.Fatalf("/optimize/batch job %d: %+v", k, item.Error)
		}
		check(fmt.Sprintf("/optimize/batch route=%v", route), item.Result, route)
	}
}

// TestCoordinatorAffinityDedupsRelabelings is the routing contract:
// every relabeling of one instance carries the same canonical
// fingerprint, routes to the same shard, and dedups through that
// worker's cache — one engine run fleet-wide, no matter how many
// label spaces the query arrives in.
func TestCoordinatorAffinityDedupsRelabelings(t *testing.T) {
	fleet := newFleet(t, 4)
	co, err := cluster.New(cluster.Config{
		Workers:       fleetURLs(fleet),
		ProbeInterval: -1,
		HedgeAfter:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	base, err := workload.Generate(workload.Params{N: 6, Shape: workload.Star, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	c := loadgen.New(cts.URL, 2)

	first, err := c.Optimize(context.Background(), &server.Request{Job: &server.Job{Instance: base, TimeoutMS: 20_000}})
	if err != nil {
		t.Fatal(err)
	}
	if !first.OK() {
		t.Fatalf("base request: status %d (%+v)", first.Status, first.ErrDoc)
	}
	if err := checkCertified(first.Result); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		dup, err := c.Optimize(context.Background(), &server.Request{Job: &server.Job{
			Instance:  qon.Relabel(base, rng.Perm(6)),
			TimeoutMS: 20_000,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !dup.OK() {
			t.Fatalf("relabeling %d: status %d (%+v)", i, dup.Status, dup.ErrDoc)
		}
		if err := checkCertified(dup.Result); err != nil {
			t.Errorf("relabeling %d: %v", i, err)
		}
		if !dup.Result.Cached {
			t.Errorf("relabeling %d missed the cache: routed off-shard", i)
		}
		if dup.Result.Fingerprint != first.Result.Fingerprint {
			t.Errorf("relabeling %d fingerprint %q != base %q", i, dup.Result.Fingerprint, first.Result.Fingerprint)
		}
	}
	if runs := fleetRuns(fleet); runs != 1 {
		t.Errorf("fleet ran the engine %d times for 7 relabelings of one instance, want 1", runs)
	}
}

// TestCoordinatorFailover proves bounded failover under two fault
// shapes against worker A: synthesized 502s (never delivered) and
// connection resets (delivered, response lost). Every client request
// must still come back a certified 200 via worker B.
func TestCoordinatorFailover(t *testing.T) {
	for _, fault := range []chaos.NetFault{chaos.Net5xx, chaos.NetReset} {
		t.Run(string(fault), func(t *testing.T) {
			fleet := newFleet(t, 2)
			reg := trace.NewRegistry()
			co, err := cluster.New(cluster.Config{
				Workers:       fleetURLs(fleet),
				Transport:     chaos.NewTransport(nil, []chaos.NetRule{{Fault: fault, Target: fleet[0].host()}}),
				ProbeInterval: -1,
				HedgeAfter:    -1,
				BaseBackoff:   time.Millisecond,
				MaxBackoff:    4 * time.Millisecond,
				Metrics:       reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			cts := httptest.NewServer(co.Handler())
			defer cts.Close()

			c := loadgen.New(cts.URL, 3)
			const requests = 16
			for i := 0; i < requests; i++ {
				out, err := c.Optimize(context.Background(), workloadReq(int64(40+i), 5))
				if err != nil {
					t.Fatal(err)
				}
				if !out.OK() {
					t.Fatalf("request %d: status %d (%+v) — failover failed", i, out.Status, out.ErrDoc)
				}
				if err := checkCertified(out.Result); err != nil {
					t.Errorf("request %d: %v", i, err)
				}
			}
			if fault == chaos.Net5xx {
				if runs := fleet[0].srv.Engine().Health().Runs; runs != 0 {
					t.Errorf("5xx-faulted worker still ran the engine %d times", runs)
				}
			}
			attempts := reg.Counter(cluster.MetricAttempts).Value()
			if attempts < requests {
				t.Errorf("attempts=%d < requests=%d", attempts, requests)
			}
			// The failure budget bounds amplification even with every
			// A-routed request failing over.
			ratioShare := cluster.DefaultRetryRatio * float64(requests)
			maxAttempts := int64(requests) + int64(cluster.DefaultRetryBurst) + int64(ratioShare) + 1
			if attempts > maxAttempts {
				t.Errorf("attempts=%d exceeds the budget bound %d", attempts, maxAttempts)
			}
		})
	}
}

// TestCoordinatorHedgeWinsWithoutDuplicateRun holds exactly one
// upstream request in the network (chaos delay, single-failure budget)
// and asserts the hedge answers: first certified result wins, the held
// primary is cancelled before delivery, and the fleet runs the engine
// exactly once — a hedge must never double-charge admission or the
// engine.
func TestCoordinatorHedgeWinsWithoutDuplicateRun(t *testing.T) {
	fleet := newFleet(t, 2)
	reg := trace.NewRegistry()
	co, err := cluster.New(cluster.Config{
		Workers: fleetURLs(fleet),
		Transport: chaos.NewTransport(nil,
			[]chaos.NetRule{{Fault: chaos.NetDelay}},
			chaos.WithNetDelay(30*time.Second), chaos.WithNetFailures(1)),
		ProbeInterval: -1,
		HedgeAfter:    10 * time.Millisecond,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	c := loadgen.New(cts.URL, 4)
	start := time.Now()
	out, err := c.Optimize(context.Background(), workloadReq(99, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("status %d (%+v)", out.Status, out.ErrDoc)
	}
	if err := checkCertified(out.Result); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("answer took %v: the hedge did not rescue the held primary", elapsed)
	}
	if v := reg.Counter(cluster.MetricHedgeIssued).Value(); v != 1 {
		t.Errorf("hedge.issued = %d, want 1", v)
	}
	if v := reg.Counter(cluster.MetricHedgeWins).Value(); v != 1 {
		t.Errorf("hedge.wins = %d, want 1", v)
	}
	if v := reg.Counter(cluster.MetricAttempts).Value(); v != 2 {
		t.Errorf("attempts = %d, want 2 (primary + hedge)", v)
	}
	if runs := fleetRuns(fleet); runs != 1 {
		t.Errorf("fleet ran the engine %d times for one hedged request, want 1 (held primary must be cancelled)", runs)
	}
}

// TestCoordinatorDeadlinePropagation uses a capturing fake worker to
// observe exactly what crosses the hop: the forwarded timeout_ms must
// be the client's budget minus the hop margin (never more), and the
// client's X-Request-ID must arrive intact.
func TestCoordinatorDeadlinePropagation(t *testing.T) {
	type seen struct {
		timeoutMS int64
		rid       string
	}
	seenC := make(chan seen, 1)
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, _ := io.ReadAll(r.Body)
		var body struct {
			Job struct {
				TimeoutMS int64 `json:"timeout_ms"`
			} `json:"job"`
		}
		json.Unmarshal(data, &body)
		seenC <- seen{timeoutMS: body.Job.TimeoutMS, rid: r.Header.Get(server.RequestIDHeader)}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"kind":"bad_request","message":"capturing fake"}}`))
	}))
	defer fake.Close()

	co, err := cluster.New(cluster.Config{
		Workers:       []string{fake.URL},
		ProbeInterval: -1,
		HedgeAfter:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	c := loadgen.New(cts.URL, 5)
	c.Retries = 0
	req := workloadReq(1, 5)
	req.TimeoutMS = 300
	out, err := c.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != http.StatusBadRequest || out.ErrDoc == nil || out.ErrDoc.Error.Kind != "bad_request" {
		t.Fatalf("worker's terminal 400 was not relayed: status %d (%+v)", out.Status, out.ErrDoc)
	}
	got := <-seenC
	if got.timeoutMS <= 0 || got.timeoutMS > 295 {
		t.Errorf("forwarded timeout_ms = %d, want in (0, 295] (300ms budget minus the hop margin)", got.timeoutMS)
	}
	if got.rid == "" || got.rid != out.RequestID {
		t.Errorf("worker saw X-Request-ID %q, client sent %q", got.rid, out.RequestID)
	}
}

// TestCoordinatorErrorDocCarriesRequestID covers the coordinator's own
// error documents: a client-supplied ID is echoed in the body and the
// response header; without one the coordinator mints an ID.
func TestCoordinatorErrorDocCarriesRequestID(t *testing.T) {
	fleet := newFleet(t, 1)
	co, err := cluster.New(cluster.Config{Workers: fleetURLs(fleet), ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	hreq, _ := http.NewRequest(http.MethodPost, cts.URL+"/optimize", bytes.NewReader([]byte("{not json")))
	hreq.Header.Set(server.RequestIDHeader, "client-abc-1")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get(server.RequestIDHeader); got != "client-abc-1" {
		t.Errorf("response header X-Request-ID = %q, want the client's", got)
	}
	var doc server.ErrorDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Error.RequestID != "client-abc-1" {
		t.Errorf("error doc request_id = %q, want the client's", doc.Error.RequestID)
	}

	resp2, err := http.Post(cts.URL+"/optimize", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var doc2 server.ErrorDoc
	if err := json.NewDecoder(resp2.Body).Decode(&doc2); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(doc2.Error.RequestID, "co-") {
		t.Errorf("coordinator minted request_id %q, want a co- prefixed ID", doc2.Error.RequestID)
	}
}

// TestCoordinatorBatchFanout splits a planted batch across the fleet
// and reassembles it: duplicates dedup within their shape group, an
// invalid job gets its own error document without failing the batch,
// and the fleet's engine-run total is bounded by the distinct shapes.
func TestCoordinatorBatchFanout(t *testing.T) {
	fleet := newFleet(t, 3)
	co, err := cluster.New(cluster.Config{
		Workers:       fleetURLs(fleet),
		ProbeInterval: -1,
		HedgeAfter:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	jobs, distinct, err := loadgen.PlantedBatch(21, 12)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, &server.Job{}) // invalid: no instance source
	c := loadgen.New(cts.URL, 6)
	out, err := c.OptimizeBatch(context.Background(), &server.BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("batch status %d (%+v)", out.Status, out.ErrDoc)
	}
	br := out.Response
	if br.Jobs != 13 {
		t.Errorf("jobs = %d, want 13", br.Jobs)
	}
	if br.Shapes != distinct {
		t.Errorf("shapes = %d, want %d (duplicates must collapse, the invalid job must not group)", br.Shapes, distinct)
	}
	for j, item := range br.Results[:12] {
		if item.Error != nil {
			t.Errorf("job %d: %+v", j, item.Error)
			continue
		}
		if err := checkCertified(item.Result); err != nil {
			t.Errorf("job %d: %v", j, err)
		}
	}
	last := br.Results[12]
	if last.Error == nil || last.Error.Kind != "bad_request" {
		t.Errorf("invalid job got %+v, want a bad_request document", last.Error)
	} else if last.Error.RequestID != out.RequestID {
		t.Errorf("invalid job's request_id = %q, want %q", last.Error.RequestID, out.RequestID)
	}
	if runs := fleetRuns(fleet); runs > int64(distinct) {
		t.Errorf("fleet ran the engine %d times for %d distinct shapes", runs, distinct)
	}
}

// TestCoordinatorBatchFailover kills every sub-batch's first try at
// worker A with synthesized 502s; every job must still come back
// certified through worker B.
func TestCoordinatorBatchFailover(t *testing.T) {
	fleet := newFleet(t, 2)
	co, err := cluster.New(cluster.Config{
		Workers:       fleetURLs(fleet),
		Transport:     chaos.NewTransport(nil, []chaos.NetRule{{Fault: chaos.Net5xx, Target: fleet[0].host()}}),
		ProbeInterval: -1,
		HedgeAfter:    -1,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	jobs, _, err := loadgen.PlantedBatch(33, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := loadgen.New(cts.URL, 7)
	out, err := c.OptimizeBatch(context.Background(), &server.BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("batch status %d (%+v)", out.Status, out.ErrDoc)
	}
	for j, item := range out.Response.Results {
		if item.Error != nil {
			t.Errorf("job %d: %+v — sub-batch failover failed", j, item.Error)
			continue
		}
		if err := checkCertified(item.Result); err != nil {
			t.Errorf("job %d: %v", j, err)
		}
	}
}

// TestCoordinatorProbesDriveHealth watches the health state machine
// through the coordinator's /readyz: a transient outage (three dropped
// probes) marks worker A down, the fleet stays ready on worker B, and
// the half-open probe after the cooldown brings A back.
func TestCoordinatorProbesDriveHealth(t *testing.T) {
	fleet := newFleet(t, 2)
	reg := trace.NewRegistry()
	co, err := cluster.New(cluster.Config{
		Workers: fleetURLs(fleet),
		Transport: chaos.NewTransport(nil,
			[]chaos.NetRule{{Fault: chaos.NetDrop, Target: fleet[0].host()}},
			chaos.WithNetFailures(3)),
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  100 * time.Millisecond,
		DownCooldown:  30 * time.Millisecond,
		HedgeAfter:    -1,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co.StartProbes(ctx)
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	stateOf := func(worker string) (state string, ready bool) {
		resp, err := http.Get(cts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc cluster.ReadyDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		for _, ws := range doc.Workers {
			if ws.Worker == worker {
				return ws.State, doc.Ready
			}
		}
		t.Fatalf("worker %s missing from readyz", worker)
		return "", false
	}
	waitFor := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			state, ready := stateOf(fleet[0].ts.URL)
			if !ready {
				t.Fatal("fleet reported not ready while worker B is healthy")
			}
			if state == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker A never reached %q (stuck at %q)", want, state)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("down")
	if v := reg.Counter(cluster.MetricWorkerDown).Value(); v < 1 {
		t.Errorf("worker.down = %d, want ≥ 1", v)
	}
	// The fault budget is spent: the half-open probe after the cooldown
	// succeeds and closes the circuit.
	waitFor("healthy")
}

// TestCoordinatorAllWorkersDown exhausts a single-worker fleet: the
// optimize path returns a structured 502 upstream document and /readyz
// flips to 503.
func TestCoordinatorAllWorkersDown(t *testing.T) {
	fleet := newFleet(t, 1)
	co, err := cluster.New(cluster.Config{
		Workers:       fleetURLs(fleet),
		Transport:     chaos.NewTransport(nil, []chaos.NetRule{{Fault: chaos.NetDrop}}),
		ProbeInterval: -1,
		HedgeAfter:    -1,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	c := loadgen.New(cts.URL, 8)
	c.Retries = 0 // the coordinator's 502 is retryable to loadgen; observe the first one
	out, err := c.Optimize(context.Background(), workloadReq(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", out.Status)
	}
	if out.ErrDoc == nil || out.ErrDoc.Error.Kind != "upstream" {
		t.Fatalf("502 without an upstream error document: %+v", out.ErrDoc)
	}
	if out.ErrDoc.Error.RequestID != out.RequestID {
		t.Errorf("502 request_id = %q, want %q", out.ErrDoc.Error.RequestID, out.RequestID)
	}
	if out.ErrDoc.Error.RetryAfterMS <= 0 {
		t.Error("coordinator 502 without a retry_after_ms hint")
	}

	// Three in-band failures have marked the worker down.
	resp, err := http.Get(cts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz = %d with every worker down, want 503", resp.StatusCode)
	}
}
