// Replication chaos soak: the replicated certified-result cache under
// attack. Phase one fills the fleet's caches through the coordinator
// while a chaos transport drops and resets the replication path (and
// only it — /optimize stays clean, proving serving never blocks on
// replication); anti-entropy repairs the divergence the partition
// created, paying for every transfer out of the global retry budget.
// Then one worker is killed and restarted empty at its old address —
// the ring is unchanged, so anti-entropy refills it from the surviving
// replicas — and relabeled duplicates of every pre-kill request must
// come back as canonical cache hits, certified, with zero uncertified
// 200s. Race-clean (go test -race).
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"
	"time"

	"approxqo/internal/chaos"
	"approxqo/internal/cluster/replica"
	"approxqo/internal/engine"
	"approxqo/internal/num"
	"approxqo/internal/qon"
	"approxqo/internal/server"
	"approxqo/internal/server/loadgen"
	"approxqo/internal/trace"
	"approxqo/internal/workload"
)

// rsoakSecret authenticates the soak fleet's replication traffic.
const rsoakSecret = "rsoak-secret"

// rsoakWorker builds one qod worker whose replication client rides the
// given (possibly chaotic) transport.
func rsoakWorker(t *testing.T, seed int64, rt http.RoundTripper) (*trace.Registry, *httptest.Server) {
	t.Helper()
	return rsoakWorkerAt(t, seed, rt, "")
}

// rsoakWorkerAt is rsoakWorker listening on addr; "" picks a free
// loopback port. A worker restarted at its old address rejoins the
// coordinator's fixed ring as the owner of the arcs it held before.
func rsoakWorkerAt(t *testing.T, seed int64, rt http.RoundTripper, addr string) (*trace.Registry, *httptest.Server) {
	t.Helper()
	reg := trace.NewRegistry()
	s, err := server.New(server.Config{
		MaxConcurrent:    4,
		QueueDepth:       64,
		DegradeAt:        64,
		DefaultTimeout:   10 * time.Second,
		Seed:             seed,
		Metrics:          reg,
		ReplicaTransport: rt,
		ClusterSecret:    rsoakSecret,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	if addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		ts.Listener.Close()
		ts.Listener = ln
	}
	ts.Start()
	return reg, ts
}

// rsoakEntry builds a distinct valid certified entry for direct
// injection (i varies the key and cost).
func rsoakEntry(i int) *replica.Entry {
	n := 3
	seq := make([]int, n)
	for k := range seq {
		seq[k] = (k + 1) % n
	}
	return &replica.Entry{
		Key:    replica.Key("qon", 3, fmt.Sprintf("inject-%04x", i)),
		RawKey: fmt.Sprintf("raw-%d", i),
		Report: &engine.Report{
			Model: "qon",
			N:     n,
			Best: &engine.BestRecord{
				Winner:    "dp",
				Sequence:  seq,
				Cost:      num.FromInt64(int64(500 + i)),
				Certified: true,
			},
		},
	}
}

// rsoakPost POSTs one JSON body to url and decodes a 200 into out.
func rsoakPost(t *testing.T, url string, in, out any) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(replica.AuthHeader, rsoakSecret)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s response %s: %v", url, data, err)
		}
	}
}

// rsoakKeys lists every cache key a worker holds.
func rsoakKeys(t *testing.T, worker string) []string {
	t.Helper()
	var out replica.KeysResponse
	rsoakPost(t, worker+"/cache/keys", &replica.KeysRequest{}, &out) // the full circle
	return out.Keys
}

// A request sent through the coordinator is stored on the worker the
// ring names for its routeKey, under exactly that key, whatever form
// the request takes: anti-entropy digests the coordinator's ring arcs
// against the keys workers store, so the two must agree. A relabeling
// must share its original's key, or it would land on another shard.
func TestRouteKeyIsWorkerCacheKey(t *testing.T) {
	const workers = 3
	urls := make([]string, workers)
	for i := range urls {
		_, ts := rsoakWorker(t, int64(700+i), nil)
		defer ts.Close()
		urls[i] = ts.URL
	}
	// No cluster secret at the coordinator: replication stays off, so
	// an entry exists only where the request itself was served.
	co, err := New(Config{Workers: urls, ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	in, err := workload.Generate(workload.Params{N: 7, Shape: workload.Random, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inline := func(in *qon.Instance) string {
		body, err := json.Marshal(map[string]any{"job": map[string]any{"instance": in}})
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	cases := []struct{ name, body string }{
		{"inline qon", inline(in)},
		{"relabeled qon", inline(qon.Relabel(in, []int{6, 4, 2, 0, 1, 3, 5}))},
		{"workload", `{"job":{"workload":{"shape":"chain","n":6,"seed":5}}}`},
		{"qoh", `{"job":{"model":"qoh","qoh_instance":{"query_graph":{"n":3,"edges":[[0,1],[1,2]]},` +
			`"sizes":["8","8","8"],"selectivities":[["1","0.5","1"],["0.5","1","0.5"],["1","0.5","1"]],"memory":"6"}}}`},
	}
	want := make(map[string][]string) // worker → keys it must hold
	keys := make([]string, len(cases))
	for i, tc := range cases {
		resp, err := http.Post(cts.URL+"/optimize", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, data)
		}
		req, err := server.DecodeRequest([]byte(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = routeKey(req, []byte(tc.body))
		owner := co.ring.Lookup(keys[i], 1)[0]
		if !slices.Contains(want[owner], keys[i]) {
			want[owner] = append(want[owner], keys[i])
		}
	}
	if keys[0] != keys[1] {
		t.Errorf("relabeling routed by %q, original by %q", keys[1], keys[0])
	}
	for _, w := range urls {
		got := rsoakKeys(t, w)
		sort.Strings(got)
		sort.Strings(want[w])
		if fmt.Sprint(got) != fmt.Sprint(want[w]) {
			t.Errorf("worker %s holds keys %q, want the route keys %q", w, got, want[w])
		}
	}
}

// One anti-entropy pass heals injected divergence — and a dry retry
// budget stops it instead of letting repair starve serving.
func TestRepairOnceHealsInjectedDivergence(t *testing.T) {
	const workers = 3
	urls := make([]string, workers)
	for i := 0; i < workers; i++ {
		_, ts := rsoakWorker(t, int64(400+i), nil)
		defer ts.Close()
		urls[i] = ts.URL
	}
	reg := trace.NewRegistry()
	co, err := New(Config{
		Workers:        urls,
		ProbeInterval:  -1,
		RepairInterval: -1,
		HedgeAfter:     -1,
		ClusterSecret:  rsoakSecret,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Divergence: one worker holds an entry its replica set lacks.
	lone := rsoakEntry(1)
	var or replica.OfferResponse
	rsoakPost(t, urls[0]+"/cache/offer", &replica.OfferRequest{Entries: []*replica.Entry{lone}}, &or)
	if or.Accepted != 1 {
		t.Fatalf("injection offer accepted %d, want 1", or.Accepted)
	}

	diverged, repaired := co.RepairOnce(ctx)
	if diverged < 1 || repaired < 1 {
		t.Fatalf("RepairOnce found %d divergent arcs and repaired %d entries, want ≥1 each", diverged, repaired)
	}
	if v := reg.Counter(MetricRepairXfers).Value(); v < 1 {
		t.Fatalf("repair.xfers = %d, want ≥1 (each transfer withdraws a budget token)", v)
	}
	for i, w := range urls {
		found := false
		for _, k := range rsoakKeys(t, w) {
			if k == lone.Key {
				found = true
			}
		}
		if !found {
			t.Fatalf("worker %d lacks %q after repair", i, lone.Key)
		}
	}
	if d, r := co.RepairOnce(ctx); d != 0 || r != 0 {
		t.Fatalf("second pass found %d/%d, want converged 0/0", d, r)
	}

	// Dry budget: repair must stop, not borrow from serving.
	for co.budget.withdraw() {
	}
	rsoakPost(t, urls[0]+"/cache/offer", &replica.OfferRequest{Entries: []*replica.Entry{rsoakEntry(2)}}, nil)
	co.RepairOnce(ctx)
	if v := reg.Counter(MetricRepairDenied).Value(); v < 1 {
		t.Fatalf("repair.denied = %d after draining the budget, want ≥1", v)
	}
}

func TestSoakReplicaPartitionRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		workers = 3
		bases   = 16
	)

	// The partition: the replication path (and only it — the "/cache/"
	// target leaves /optimize untouched) drops the first five matching
	// requests outright, then resets the next five after delivery, then
	// heals. Serving must ride through untouched; anti-entropy must
	// close whatever gaps the outage left.
	transport := chaos.NewTransport(nil, []chaos.NetRule{
		{Fault: chaos.NetDrop, Target: "/cache/"},
		{Fault: chaos.NetReset, Target: "/cache/"},
	}, chaos.WithNetSeed(17), chaos.WithNetFailures(5))

	regs := make([]*trace.Registry, workers)
	listeners := make([]*httptest.Server, workers)
	urls := make([]string, workers)
	for i := 0; i < workers; i++ {
		regs[i], listeners[i] = rsoakWorker(t, int64(600+i), transport)
		defer listeners[i].Close()
		urls[i] = listeners[i].URL
	}

	reg := trace.NewRegistry()
	co, err := New(Config{
		Workers:        urls,
		Transport:      transport,
		ProbeInterval:  -1,
		RepairInterval: -1,
		HedgeAfter:     -1,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     8 * time.Millisecond,
		RetryBurst:     128, // repair transfers draw real tokens; deposits alone (0.2/req) would stall convergence
		ClusterSecret:  rsoakSecret,
		Seed:           21,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	// Phase 1: fill the fleet through the front door while the
	// replication path misbehaves.
	c := loadgen.New(cts.URL, 31)
	c.Retries = 4
	c.BaseBackoff = time.Millisecond
	c.MaxBackoff = 10 * time.Millisecond
	instances := make([]*qon.Instance, bases)
	keys := make(map[string]bool, bases)
	for i := 0; i < bases; i++ {
		in, err := workload.Generate(workload.Params{
			N: 5 + i%3, Shape: workload.Chain, Seed: int64(800 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		instances[i] = in
		out, err := c.Optimize(ctx, &server.Request{Job: &server.Job{Instance: in, TimeoutMS: 20_000}})
		if err != nil {
			t.Fatalf("base %d transport: %v", i, err)
		}
		if !out.OK() {
			t.Fatalf("base %d: status %d (%+v)", i, out.Status, out.ErrDoc)
		}
		if err := csoakCheck200(out.Result); err != nil {
			t.Fatalf("base %d: %v", i, err)
		}
		keys["qon:"+out.Result.Fingerprint] = true
	}
	want := len(keys) // distinct canonical keys (seeds make collisions unexpected)
	if want < bases-1 {
		t.Fatalf("only %d distinct fingerprints across %d bases", want, bases)
	}

	// Anti-entropy until convergence: two consecutive clean passes.
	// Early rounds lose traffic to the partition; the fault budget is
	// finite, so the loop must converge once it heals.
	repairUntilClean := func(phase string) {
		t.Helper()
		clean := 0
		for round := 0; round < 25 && clean < 2; round++ {
			if d, _ := co.RepairOnce(ctx); d == 0 {
				clean++
			} else {
				clean = 0
			}
		}
		if clean < 2 {
			t.Fatalf("%s: anti-entropy never converged", phase)
		}
	}
	time.Sleep(50 * time.Millisecond) // let async fan-out land (or fault) first
	repairUntilClean("phase 1")

	// R=2 on a 3-worker ring puts every certified result everywhere.
	for i, w := range urls {
		if got := len(rsoakKeys(t, w)); got != want {
			t.Errorf("worker %d holds %d keys after repair, want %d", i, got, want)
		}
	}

	// Kill worker 0 and restart it, empty, at the same address: the
	// coordinator's ring never changes, so the restarted worker owns the
	// arcs it owned before, and anti-entropy refills it from the
	// surviving replicas.
	addr := listeners[0].Listener.Addr().String()
	listeners[0].Close()
	restartReg, restartTS := rsoakWorkerAt(t, 999, transport, addr)
	defer restartTS.Close()
	if restartTS.URL != urls[0] {
		t.Fatalf("restarted worker serves %s, want its old address %s", restartTS.URL, urls[0])
	}
	repairUntilClean("post-restart")
	if got := len(rsoakKeys(t, restartTS.URL)); got != want {
		t.Errorf("restarted worker holds %d keys after repair, want %d", got, want)
	}

	// Phase 2: a relabeled duplicate of every pre-kill request. Each
	// must be a certified 200 served from a cache — the canonical-space
	// copy survived the kill on the surviving replicas and was repaired
	// onto the restarted worker — with zero engine re-runs visible as
	// cache misses.
	rng := rand.New(rand.NewSource(51))
	for i, base := range instances {
		dup := qon.Relabel(base, rng.Perm(base.N()))
		out, err := c.Optimize(ctx, &server.Request{Job: &server.Job{Instance: dup, TimeoutMS: 20_000}})
		if err != nil {
			t.Fatalf("duplicate %d transport: %v", i, err)
		}
		if !out.OK() {
			t.Fatalf("duplicate %d: status %d (%+v)", i, out.Status, out.ErrDoc)
		}
		if err := csoakCheck200(out.Result); err != nil {
			t.Fatalf("duplicate %d: %v", i, err)
		}
		if !out.Result.Cached {
			t.Errorf("duplicate %d missed every cache: the replicated copy did not survive the kill", i)
		}
	}
	var canonicalHits int64
	for _, r := range append(regs[1:], restartReg) {
		canonicalHits += r.Counter(server.MetricCanonicalHits).Value()
	}
	if canonicalHits == 0 {
		t.Error("no canonical cache hits fleet-wide after the kill: recovery did not restore the hit path")
	}

	// The fleet is ready again.
	rd, err := c.Readyz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Status != http.StatusOK || !rd.Ready {
		t.Errorf("/readyz = %d %+v, want 200 ready", rd.Status, rd)
	}

	// Repair traffic is priced like retries: attempts beyond the
	// per-request primaries plus repair transfers all fit inside the
	// token bucket (deposits + burst + refunded hedge losers).
	requests := reg.Counter(MetricRequests).Value()
	groups := reg.Counter(MetricBatchShapes).Value()
	attempts := reg.Counter(MetricAttempts).Value()
	xfers := reg.Counter(MetricRepairXfers).Value()
	refunded := reg.Counter(MetricRetryRefunded).Value()
	bound := float64(requests+groups)*(1+DefaultRetryRatio) + 128 + float64(refunded)
	if float64(attempts+xfers) > bound+1 {
		t.Errorf("attempts=%d + repair xfers=%d exceed the budget bound %.0f (requests=%d groups=%d)",
			attempts, xfers, bound, requests, groups)
	}
	if v := reg.Gauge(MetricInFlight).Value(); v != 0 {
		t.Errorf("inflight gauge %d after the soak drained, want 0", v)
	}
	t.Logf("replica soak: %d keys replicated, xfers=%d repaired=%d denied=%d attempts=%d of bound %.0f",
		want, xfers,
		reg.Counter(MetricRepairEntries).Value(), reg.Counter(MetricRepairDenied).Value(),
		attempts, bound)
}
