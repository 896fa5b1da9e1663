// Command qod is the optimization daemon: it serves QO_N/QO_H
// optimization requests over HTTP through the supervised ensemble
// engine, with admission control, a load-aware degradation ladder and
// graceful shutdown (see internal/server and README §Serving).
//
// Endpoints:
//
//	POST /optimize       — {"job":{...}} → certified result or
//	                       structured error document
//	POST /optimize/batch — {"jobs":[...]} → per-job results in order;
//	                       jobs are deduplicated by canonical instance
//	                       fingerprint, so k relabeled copies of one
//	                       query cost one engine run
//	GET  /healthz        — liveness + load gauges
//	GET  /readyz         — readiness (engine health probe, breaker circuits)
//
// Usage:
//
//	qod -addr :8080
//	qod -addr :8080 -workers 8 -queue 64 -degrade-at 8 -shed-at 48
//	qod -addr :8080 -req-timeout 2s -max-timeout 30s -drain 5s
//	qod -addr :8080 -max-batch 128 -cache-size 1024
//	qod -addr :8080 -chaos 'panic:greedy-min-cost' -metrics
//	qod -addr :8080 -route
//	qod -addr :8080 -pprof-addr localhost:6060 -memlimit 2GiB
//
// With -route, the structural classifier (internal/classify) picks each
// QO_N request's ensemble subset and the degradation ladder sheds the
// tiers it ranks least valuable; jobs can override per request with
// "route": true/false. Two one-shot modes support the routing feature
// without starting a server: -route-explain prints the classifier's
// decision for a workload spec, and -eval measures routed-vs-full cost
// ratios and wall times per family against a running qod:
//
//	qod -route-explain '{"shape":"chain-selective","n":12,"seed":4}'
//	qod -eval http://localhost:8080 -eval-n 12 -eval-seeds 5
//
// Coordinator mode (-coordinate) turns qod into the fault-tolerant
// front of a worker fleet instead of a worker: requests are routed to
// the listed qod workers by canonical instance fingerprint over a
// consistent-hash ring, with health-gated failover, budgeted retries
// and tail-latency hedging (see internal/cluster and README
// §Clustering):
//
//	qod -addr :8080 -coordinate 'http://w1:8081,http://w2:8082'
//	qod -addr :8080 -coordinate ... -hedge-after 0 -max-retries 2
//	qod -addr :8080 -coordinate ... -replicas 2 -repair-every 5s
//	qod -addr :8080 -coordinate ... -net-chaos 'delay:w2,rate:0.1'
//
// Ring membership is the -coordinate list for the life of the process.
// With replication on (the default, -replicas 2), each certified result
// stored by a worker is fanned out to its ring successors, so a dead
// worker's keys stay hits on the successors it fails over to, and a
// background anti-entropy loop (-repair-every) digests replica pairs
// and read-repairs divergence — refilling a worker restarted at its
// address — paying for each transfer out of the global retry budget. Replication
// traffic is authenticated by a shared secret (-cluster-secret, or
// $QOD_CLUSTER_SECRET) that every fleet member must be started with;
// without one, workers keep their /cache/* surfaces closed and the
// coordinator runs with replication off.
//
// SIGINT/SIGTERM triggers a graceful drain: admission stops, in-flight
// requests finish within -drain, and the observability outputs
// requested by -trace/-metrics/-cpuprofile/-memprofile are flushed.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"approxqo/internal/chaos"
	"approxqo/internal/classify"
	"approxqo/internal/cliutil"
	"approxqo/internal/cluster"
	"approxqo/internal/server"
	"approxqo/internal/server/loadgen"
	"approxqo/internal/workload"
)

var common = cliutil.Common{Seed: 1}

func main() {
	common.Register(flag.CommandLine)
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent optimization workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth beyond the workers (0 = 4x workers)")
	degradeAt := flag.Int("degrade-at", 0, "load at which exact optimizers are shed (0 = workers)")
	shedAt := flag.Int("shed-at", 0, "load at which requests are shed outright (0 = disabled)")
	reqTimeout := flag.Duration("req-timeout", 2*time.Second, "default per-request deadline budget")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "cap on requested deadline budgets")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline")
	retryAfter := flag.Duration("retry-after", 250*time.Millisecond, "Retry-After hint on 429/503")
	chaosSpec := flag.String("chaos", "", "fault injection spec applied to every request's ensemble")
	cacheSize := flag.Int("cache-size", 0, "certified-result cache entries (0 = default 256, negative disables)")
	route := flag.Bool("route", false, "adaptive ensemble routing by structural classifier (jobs override per-request with \"route\")")
	routeExplain := flag.String("route-explain", "", "one-shot: classify the given workload spec JSON, print the routing decision, exit")
	evalTarget := flag.String("eval", "", "one-shot: run the routed-vs-full family eval against the given qod base URL, print the report, exit")
	evalFamilies := flag.String("eval-families", "", "eval mode: comma-separated workload families (default: the harness families)")
	evalN := flag.Int("eval-n", 0, "eval mode: instance size (0 = default 12)")
	evalSeeds := flag.Int("eval-seeds", 0, "eval mode: seeds per family (0 = default 5)")
	maxBatch := flag.Int("max-batch", 0, "max jobs per /optimize/batch request (0 = default 64)")
	coordinate := flag.String("coordinate", "", "comma-separated worker base URLs; set to run as a cluster coordinator instead of a worker")
	maxRetries := flag.Int("max-retries", 0, "coordinator: failover retries per request (0 = default 2)")
	hedgeAfter := flag.Duration("hedge-after", 0, "coordinator: hedge trigger (0 = adaptive p95, negative disables)")
	probeEvery := flag.Duration("probe-every", 0, "coordinator: worker /readyz probe cadence (0 = default 500ms, negative disables)")
	replicas := flag.Int("replicas", 0, "coordinator: ring successors holding a copy of each certified result (0 = default 2, negative disables replication)")
	repairEvery := flag.Duration("repair-every", 0, "coordinator: anti-entropy repair cadence (0 = default 5s, negative disables)")
	netChaos := flag.String("net-chaos", "", "coordinator: network fault spec applied to upstream requests (e.g. 'drop,delay:w2')")
	clusterSecret := flag.String("cluster-secret", os.Getenv("QOD_CLUSTER_SECRET"),
		"shared secret authenticating cache-replication traffic; must match across the fleet (default $QOD_CLUSTER_SECRET; empty disables replication)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this extra listener (e.g. localhost:6060); never exposed on the public mux")
	memLimit := flag.String("memlimit", "", "soft heap limit for the Go runtime (e.g. 512MiB, 2GiB); sets debug.SetMemoryLimit like GOMEMLIMIT")
	flag.Parse()

	if *memLimit != "" {
		limit, err := parseByteSize(*memLimit)
		if err != nil {
			common.Fatal("qod", err)
		}
		debug.SetMemoryLimit(limit)
	}
	if *pprofAddr != "" {
		// The profiling surface gets its own listener and mux so it can be
		// bound to loopback while -addr faces the network; registering
		// pprof on the serving mux would expose heap and goroutine dumps
		// to every client.
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			common.Fatal("qod", fmt.Errorf("pprof listener: %w", err))
		}
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(os.Stderr, "qod: pprof on http://%s/debug/pprof/\n", ln.Addr())
		go func() { _ = (&http.Server{Handler: pm}).Serve(ln) }()
	}

	// The signal handler's force-flush must not fire while a healthy
	// drain is still inside its deadline.
	common.SignalGrace = *drain + 2*time.Second
	ctx, cancel := common.Context()
	defer cancel()
	common.Observe("qod")
	defer common.Close("qod")

	if *routeExplain != "" {
		spec, err := workload.DecodeSpec([]byte(*routeExplain))
		if err != nil {
			common.Fatal("qod", err)
		}
		in, err := spec.Generate()
		if err != nil {
			common.Fatal("qod", err)
		}
		dec := classify.Route(classify.Extract(in))
		if err := cliutil.WriteJSON(os.Stdout, dec); err != nil {
			common.Fatal("qod", err)
		}
		return
	}

	if *evalTarget != "" {
		cfg := loadgen.EvalConfig{N: *evalN, Seeds: *evalSeeds, TimeoutMS: int64(*maxTimeout / time.Millisecond)}
		if *evalFamilies != "" {
			for _, f := range strings.Split(*evalFamilies, ",") {
				if f = strings.TrimSpace(f); f != "" {
					cfg.Families = append(cfg.Families, f)
				}
			}
		}
		rep, err := loadgen.New(strings.TrimRight(*evalTarget, "/"), common.Seed).EvalFamilies(ctx, cfg)
		if err != nil {
			common.Fatal("qod", err)
		}
		if err := cliutil.WriteJSON(os.Stdout, rep); err != nil {
			common.Fatal("qod", err)
		}
		return
	}

	if *coordinate != "" {
		var workers []string
		for _, w := range strings.Split(*coordinate, ",") {
			if w = strings.TrimSpace(w); w != "" {
				workers = append(workers, strings.TrimRight(w, "/"))
			}
		}
		var transport http.RoundTripper
		if *netChaos != "" {
			rules, err := chaos.ParseNetSpec(*netChaos)
			if err != nil {
				common.Fatal("qod", err)
			}
			transport = chaos.NewTransport(nil, rules, chaos.WithNetSeed(common.Seed))
		}
		if *replicas >= 0 && *clusterSecret == "" {
			fmt.Fprintln(os.Stderr, "qod: replication disabled: -cluster-secret not set")
		}
		co, err := cluster.New(cluster.Config{
			Workers:        workers,
			Transport:      transport,
			MaxRetries:     *maxRetries,
			HedgeAfter:     *hedgeAfter,
			ProbeInterval:  *probeEvery,
			Replicas:       *replicas,
			RepairInterval: *repairEvery,
			ClusterSecret:  *clusterSecret,
			DefaultTimeout: *reqTimeout,
			MaxTimeout:     *maxTimeout,
			RetryAfter:     *retryAfter,
			MaxBatchJobs:   *maxBatch,
			Seed:           common.Seed,
			Tracer:         common.Tracer(),
			Metrics:        common.Registry(),
		})
		if err != nil {
			common.Fatal("qod", err)
		}
		fmt.Fprintf(os.Stderr, "qod: coordinating %d workers on %s\n", len(workers), *addr)
		if err := co.ListenAndServe(ctx, *addr); err != nil {
			common.Fatal("qod", err)
		}
		fmt.Fprintln(os.Stderr, "qod: coordinator drained cleanly")
		return
	}

	s, err := server.New(server.Config{
		MaxConcurrent:  *workers,
		QueueDepth:     *queue,
		DegradeAt:      *degradeAt,
		ShedAt:         *shedAt,
		Route:          *route,
		DefaultTimeout: *reqTimeout,
		MaxTimeout:     *maxTimeout,
		DrainTimeout:   *drain,
		RetryAfter:     *retryAfter,
		Seed:           common.Seed,
		ChaosSpec:      *chaosSpec,
		CacheSize:      *cacheSize,
		MaxBatchJobs:   *maxBatch,
		ClusterSecret:  *clusterSecret,
		Tracer:         common.Tracer(),
		Metrics:        common.Registry(),
	})
	if err != nil {
		common.Fatal("qod", err)
	}
	fmt.Fprintf(os.Stderr, "qod: serving on %s (drain deadline %s)\n", *addr, *drain)
	// ListenAndServe blocks until ctx ends (SIGINT/SIGTERM via cliutil,
	// or -timeout), then drains in-flight requests before returning.
	if err := s.ListenAndServe(ctx, *addr); err != nil {
		common.Fatal("qod", err)
	}
	fmt.Fprintln(os.Stderr, "qod: drained cleanly")
}

// parseByteSize parses a GOMEMLIMIT-style byte quantity: a decimal
// count with an optional B, KiB, MiB, GiB or TiB suffix.
func parseByteSize(s string) (int64, error) {
	orig := s
	shift := 0
	switch {
	case strings.HasSuffix(s, "KiB"):
		shift, s = 10, s[:len(s)-3]
	case strings.HasSuffix(s, "MiB"):
		shift, s = 20, s[:len(s)-3]
	case strings.HasSuffix(s, "GiB"):
		shift, s = 30, s[:len(s)-3]
	case strings.HasSuffix(s, "TiB"):
		shift, s = 40, s[:len(s)-3]
	case strings.HasSuffix(s, "B"):
		s = s[:len(s)-1]
	}
	if s == "" {
		return 0, fmt.Errorf("invalid -memlimit %q", orig)
	}
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid -memlimit %q (want e.g. 512MiB, 2GiB)", orig)
		}
		v = v*10 + int64(c-'0')
		if v<<shift < 0 {
			return 0, fmt.Errorf("-memlimit %q overflows", orig)
		}
	}
	if v == 0 {
		return 0, fmt.Errorf("-memlimit %q must be positive", orig)
	}
	return v << shift, nil
}
