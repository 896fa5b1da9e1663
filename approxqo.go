// Package approxqo reproduces "On the Complexity of Approximate Query
// Optimization" (Chatterji, Evani, Ganguly, Yemmanuru — PODS 2002) as a
// working Go library: the QO_N and QO_H join-ordering cost models, the
// hardness reductions f_N, f_H and their sparse variants, the appendix's
// SQO−CP/SPPCS NP-completeness chain, exact and heuristic join-order
// optimizers, and an experiment harness that regenerates a table or
// figure for every theorem (see DESIGN.md and EXPERIMENTS.md).
//
// This root package is a facade: it re-exports the library's primary
// entry points so that downstream code can depend on a single import.
// The implementation lives under internal/ (one package per subsystem)
// and the runnable entry points under cmd/ and examples/.
package approxqo

import (
	"approxqo/internal/bushy"
	"approxqo/internal/certify"
	"approxqo/internal/chaos"
	"approxqo/internal/classify"
	"approxqo/internal/cliquered"
	"approxqo/internal/cluster"
	"approxqo/internal/cluster/replica"
	"approxqo/internal/core"
	"approxqo/internal/engine"
	"approxqo/internal/experiments"
	"approxqo/internal/graph"
	"approxqo/internal/num"
	"approxqo/internal/opt"
	"approxqo/internal/plan"
	"approxqo/internal/qoh"
	"approxqo/internal/qon"
	"approxqo/internal/sat"
	"approxqo/internal/server"
	"approxqo/internal/sqocp"
	"approxqo/internal/stats"
	"approxqo/internal/trace"
	"approxqo/internal/workload"
)

// Re-exported core types. See the internal packages for full
// documentation.
type (
	// Num is an arbitrary-magnitude non-negative number (costs such as
	// α^{n²} are routine for the reductions).
	Num = num.Num
	// Graph is an undirected graph with exact max-clique search.
	Graph = graph.Graph
	// Formula is a CNF formula with a DPLL solver.
	Formula = sat.Formula
	// QONInstance is the nested-loops join-ordering problem of §2.1.
	QONInstance = qon.Instance
	// QOHInstance is the pipelined hash-join problem of §2.2.
	QOHInstance = qoh.Instance
	// FNInstance is the §4 reduction output (CLIQUE → QO_N).
	FNInstance = core.FNInstance
	// FHInstance is the §5 reduction output (⅔CLIQUE → QO_H).
	FHInstance = core.FHInstance
	// GapCertificate records promised vs measured hardness gaps.
	GapCertificate = core.GapCertificate
	// Optimizer is the join-order optimizer interface: Optimize takes a
	// context and an instance and returns the best plan found (anytime
	// heuristics return their best-so-far when the context expires).
	Optimizer = opt.Optimizer
	// OptimizerOption configures optimizer constructors (see WithSeed,
	// WithMaxRelations, WithStats, ...).
	OptimizerOption = opt.Option
	// Result is an optimizer's outcome: sequence, cost, exactness.
	Result = opt.Result
	// Engine supervises concurrent ensemble runs over one instance.
	Engine = engine.Engine
	// EngineReport is the structured per-run outcome of an engine run.
	EngineReport = engine.Report
	// Stats is the per-run instrumentation sink (cost evaluations, DP
	// subsets, annealing moves) threaded through the cost models.
	Stats = stats.Stats
	// StatsSnapshot is an immutable copy of a Stats sink's counters.
	StatsSnapshot = stats.Snapshot
	// Tracer collects hierarchical spans and exports Chrome trace_event
	// JSON; Span is one timed region of a traced run.
	Tracer = trace.Tracer
	Span   = trace.Span
	// MetricsRegistry is the named counter/gauge/histogram sink the
	// engine publishes ensemble aggregates into.
	MetricsRegistry = trace.Registry
	// MetricsSnapshot is a point-in-time copy of a whole registry.
	MetricsSnapshot = trace.RegistrySnapshot
	// StarQuery is the appendix's SQO−CP star-query instance.
	StarQuery = sqocp.Star
	// WorkloadParams parameterizes realistic random query generation.
	WorkloadParams = workload.Params
	// ExperimentOptions tunes the experiment harness.
	ExperimentOptions = experiments.Options
	// Certificate records an auditor's verdict on one optimizer result:
	// the claimed cost, the independently recomputed cost, and (for
	// exact-flagged results) the witness bound it was checked against.
	Certificate = certify.Certificate
	// ChaosFault names an injectable fault (panic, stall, wrongcost,
	// invalidplan, error, leak).
	ChaosFault = chaos.Fault
	// ChaosRule targets one fault at matching optimizers in a spec.
	ChaosRule = chaos.Rule
	// EngineHealth is the engine's cheap health probe: run/failure
	// counts, quarantine depth and recent error kinds (qod's /readyz).
	EngineHealth = engine.Health
	// Server is the daemon's HTTP serving layer (admission control,
	// degradation ladder, circuit breaker, graceful drain); ServerConfig
	// configures it and ServerRequest/ServerResult are the /optimize
	// wire documents.
	Server        = server.Server
	ServerConfig  = server.Config
	ServerRequest = server.Request
	ServerResult  = server.Result
	// ServerJob is the unified tagged job object shared by /optimize and
	// /optimize/batch; ServerBatchRequest/ServerBatchResponse are the
	// /optimize/batch wire documents and ServerBatchJobResult one job's
	// slot in the response.
	ServerJob            = server.Job
	ServerBatchRequest   = server.BatchRequest
	ServerBatchResponse  = server.BatchResponse
	ServerBatchJobResult = server.BatchJobResult
	// Coordinator is the fault-tolerant cluster front for a pool of qod
	// workers: fingerprint-affinity routing over a consistent-hash ring,
	// health-gated failover under a global retry budget, and
	// tail-latency hedging (qod -coordinate). ClusterConfig configures
	// it.
	Coordinator   = cluster.Coordinator
	ClusterConfig = cluster.Config
	// ReplicaEntry is one replicated certified cache entry (key +
	// canonical-space report), re-validated at every trust boundary;
	// ReplicaRange is a half-open wrapping arc of the hash circle the
	// anti-entropy path addresses keyspace by.
	ReplicaEntry = replica.Entry
	ReplicaRange = replica.Range
	// NetFault names an injectable network fault (drop, delay, 5xx,
	// reset, truncate); NetRule targets one at matching workers.
	NetFault = chaos.NetFault
	NetRule  = chaos.NetRule
	// RouteFeatures is the relabel-invariant structural feature vector
	// the adaptive router extracts from a QO_N instance; RouteDecision
	// is the router's verdict (class, ensemble tiers in shed order,
	// budget fraction, reason). RouteClass and RouteTier name the
	// classes and ensemble tiers.
	RouteFeatures = classify.Features
	RouteDecision = classify.Decision
	RouteClass    = classify.Class
	RouteTier     = classify.Tier
	// WorkloadSpec is the JSON workload-family grammar shared by the
	// server's request decoder, loadgen and the ratio harness: basic
	// topologies plus the paper-grounded families (skewed-star,
	// chain-selective, sparse-em, cliquered-yes/no).
	WorkloadSpec = workload.Spec
)

// Reductions and pipelines.
var (
	// FN applies the §4 reduction from a CLIQUE instance to QO_N.
	FN = core.FN
	// FH applies the §5 reduction from a ⅔CLIQUE instance to QO_H.
	FH = core.FH
	// SparseFN and SparseFH are the §6 sparse-query-graph variants.
	SparseFN = core.SparseFN
	SparseFH = core.SparseFH
	// Theorem9 and Theorem15 run the full 3SAT chains.
	Theorem9  = core.Theorem9
	Theorem15 = core.Theorem15
	// Lemma3 and Lemma4 are the 3SAT → CLIQUE-variant reductions.
	Lemma3 = cliquered.Lemma3
	Lemma4 = cliquered.Lemma4
	// GenerateWorkload builds realistic random QO_N instances.
	GenerateWorkload = workload.Generate
	// DecodeWorkloadSpec parses and validates one JSON family spec;
	// WorkloadFamilies lists every generatable population name.
	DecodeWorkloadSpec = workload.DecodeSpec
	WorkloadFamilies   = workload.Families
	// Experiments returns the reproduction's experiment catalog.
	Experiments = experiments.All
)

// Adaptive ensemble routing (see internal/classify and README
// §Adaptive routing).
var (
	// ExtractRouteFeatures computes the relabel-invariant feature vector
	// of a QO_N instance; RouteInstance maps features to a routing
	// decision (a pure function: equal features, equal decisions).
	ExtractRouteFeatures = classify.Extract
	RouteInstance        = classify.Route
	// RouteEnsemble materializes a decision into engine-ready optimizers
	// plus skip records for the members it left out; its last argument
	// is a circuit-breaker admission check (nil admits every member).
	RouteEnsemble = classify.Ensemble
	// AllRouteTiers is the full-ensemble tier set in shed order.
	AllRouteTiers = classify.AllTiers
)

// Optimizer constructors.
var (
	// NewDP is the exact subset dynamic program (left-deep optimal).
	NewDP = opt.NewDP
	// NewDPParallel is the same DP parallelized across cores.
	NewDPParallel = opt.NewDPParallel
	// NewDPNoCross is the exact DP over cartesian-product-free orders.
	NewDPNoCross = opt.NewDPNoCross
	// NewKBZ is the Ibaraki–Kameda rank algorithm for tree queries.
	NewKBZ = opt.NewKBZ
	// NewGreedy builds greedy optimizers (opt.GreedyMinSize/MinCost).
	NewGreedy = opt.NewGreedy
	// NewAnnealing is simulated annealing over permutations.
	NewAnnealing = opt.NewAnnealing
	// Heuristics returns the standard polynomial-time ensemble.
	Heuristics = opt.Heuristics
	// BestOf runs several optimizers sequentially and keeps the cheapest.
	BestOf = opt.BestOf
	// QOHBest runs the QO_H plan-search ensemble.
	QOHBest = opt.QOHBest
)

// Optimizer options (passed to the constructors above).
var (
	// WithSeed seeds an optimizer's randomized components.
	WithSeed = opt.WithSeed
	// WithMaxRelations bounds the instance size exact DPs accept.
	WithMaxRelations = opt.WithMaxRelations
	// WithStats attaches an instrumentation sink to an optimizer.
	WithStats = opt.WithStats
	// WithIterations, WithSamples and WithRestarts tune the randomized
	// optimizers' search effort.
	WithIterations = opt.WithIterations
	WithSamples    = opt.WithSamples
	WithRestarts   = opt.WithRestarts
)

// Supervised ensemble engine.
var (
	// NewEngine builds a supervised ensemble runner; see engine.Options
	// re-exported below.
	NewEngine = engine.New
	// NewServer builds the daemon's serving layer from a ServerConfig
	// (cmd/qod wires it to an address and the signal machinery).
	NewServer = server.New
	// WithRunTimeout bounds each optimizer run individually.
	WithRunTimeout = engine.WithRunTimeout
	// WithGrace sets how long the engine waits for straggler results
	// after cancellation before abandoning them.
	WithGrace = engine.WithGrace
	// WithoutEarlyExit keeps all runs going after an exact result.
	WithoutEarlyExit = engine.WithoutEarlyExit
	// QOHSearchers returns the engine-ready QO_H plan-search ensemble.
	QOHSearchers = engine.QOHSearchers
)

// Observability: tracing, metrics and profiling (see internal/trace).
var (
	// NewTracer builds a span collector for engine.WithTracer.
	NewTracer = trace.New
	// NewMetricsRegistry builds a metrics sink for engine.WithMetrics.
	NewMetricsRegistry = trace.NewRegistry
	// WithTracer and WithMetrics attach the observability sinks to an
	// engine; nil sinks disable instrumentation with no branching.
	WithTracer  = engine.WithTracer
	WithMetrics = engine.WithMetrics
	// StartProfiles starts pprof CPU/heap capture (either path may be
	// empty); stop with the returned Profiler's Stop.
	StartProfiles = trace.StartProfiles
)

// Certification and fault injection.
var (
	// CertifyQON and CertifyQOH independently audit an optimizer result:
	// permutation validity, exact cost recomputation, and a witness bound
	// for exact-flagged claims.
	CertifyQON = certify.QON
	CertifyQOH = certify.QOH
	// ChaosWrap wraps an optimizer with a deterministic injected fault.
	ChaosWrap = chaos.Wrap
	// ParseChaosSpec parses the fault[:optimizer],... grammar used by
	// qopt -chaos.
	ParseChaosSpec = chaos.ParseSpec
	// ApplyChaosSpec parses a spec and wraps the matching optimizers.
	ApplyChaosSpec = chaos.ApplySpec
	// NewCoordinator builds the cluster coordinator over a worker pool
	// (see ClusterConfig).
	NewCoordinator = cluster.New
	// NewChaosTransport wraps an http.RoundTripper with deterministic
	// network-fault injection; ParseNetSpec parses the
	// fault[:worker],... grammar used by qod -net-chaos.
	NewChaosTransport = chaos.NewTransport
	ParseNetSpec      = chaos.ParseNetSpec
)

// Structured error taxonomy surfaced by the engine. Test with errors.Is.
var (
	// ErrUncertified marks a result that failed the certification audit.
	ErrUncertified = engine.ErrUncertified
	// ErrQuarantined marks a run benched for its own failure or for
	// abandonment; it never reaches the merge.
	ErrQuarantined = engine.ErrQuarantined
	// ErrInvalidPlan marks a plan that is not a valid permutation (or,
	// for QO_H, has malformed pipeline breaks).
	ErrInvalidPlan = engine.ErrInvalidPlan
	// ErrNoOptimizers, ErrNilInstance and ErrAllFailed are the engine's
	// input- and outcome-level failures.
	ErrNoOptimizers = engine.ErrNoOptimizers
	ErrNilInstance  = engine.ErrNilInstance
	ErrAllFailed    = engine.ErrAllFailed
)

// Canonical instance identity (see DESIGN.md §Canonical identity): a
// graph-invariant fingerprint plus a deterministic relabeling, so any
// two relabelings of one instance agree byte-for-byte.
var (
	// FingerprintQON and FingerprintQOH return the model-tagged canonical
	// fingerprint of an instance — equal exactly for relabelings of the
	// same instance. The qod result cache keys on it.
	FingerprintQON = qon.Fingerprint
	FingerprintQOH = qoh.Fingerprint
	// CanonicalizeQON and CanonicalizeQOH return the canonical relabeling
	// of an instance together with the permutation pi that produced it
	// (pi[v] = canonical label of input label v).
	CanonicalizeQON = qon.Canonicalize
	CanonicalizeQOH = qoh.Canonicalize
	// RelabelQON and RelabelQOH apply an explicit relation relabeling —
	// the cost models are invariant under them (metamorphic suites).
	RelabelQON = qon.Relabel
	RelabelQOH = qoh.Relabel
)

// Extensions and tooling.
var (
	// OptimizeBushy finds an optimal bushy join tree (exact DPsub).
	OptimizeBushy = bushy.Optimize
	// ExplainQON, ExplainQOH and ExplainBushy render plans as
	// EXPLAIN-style operator trees.
	ExplainQON   = plan.ExplainQON
	ExplainQOH   = plan.ExplainQOH
	ExplainBushy = plan.ExplainBushy
	// Catalog returns the benchmark-shaped named queries.
	Catalog = workload.Catalog
)

// BushyTree is a bushy join tree (see internal/bushy).
type BushyTree = bushy.Tree
