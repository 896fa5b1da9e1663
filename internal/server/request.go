package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"approxqo/internal/cluster/replica"
	"approxqo/internal/qoh"
	"approxqo/internal/qon"
	"approxqo/internal/trace"
	"approxqo/internal/workload"
)

// Request size caps. The daemon is a shared resource: an instance too
// large to optimize within any sane deadline is rejected at the door
// with a 400 instead of burning a worker slot until the budget expires.
const (
	// MaxRequestN caps inline and generated QO_N instances.
	MaxRequestN = 32
	// MaxRequestQOHN caps inline QO_H instances (the pipeline DP is a
	// heavier cost model; qoh.MaxExhaustiveN bounds the exact searcher
	// separately).
	MaxRequestQOHN = 16
	// DefaultMaxBodyBytes bounds the request body the decoder will read.
	DefaultMaxBodyBytes = 1 << 20
)

// WorkloadSpec asks the server to generate a seeded random instance
// instead of shipping one inline — the full family grammar of the
// workload package: the basic topologies
// (chain|cycle|star|grid|clique|random) plus the paper-grounded
// families (skewed-star|chain-selective|sparse-em|cliquered-yes|
// cliquered-no). It is the server-side alias of workload.Spec.
type WorkloadSpec = workload.Spec

// Job is the unified tagged job object shared by POST /optimize
// (`{"job": {...}}`) and POST /optimize/batch (`{"jobs": [{...}, ...]}`).
// Exactly one instance source must be set: an inline QO_N instance (the
// qon decoder validates it), an inline QO_H instance, or a workload
// spec to generate from.
type Job struct {
	// Model is "qon" (default) or "qoh"; it must agree with the
	// instance source.
	Model string `json:"model,omitempty"`
	// Instance is an inline QO_N instance (qohard -out / qopt -file
	// format).
	Instance *qon.Instance `json:"instance,omitempty"`
	// QOHInstance is an inline QO_H instance.
	QOHInstance *qoh.Instance `json:"qoh_instance,omitempty"`
	// Workload generates a QO_N instance server-side (qoh generation is
	// not supported).
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// TimeoutMS is the per-request deadline budget in milliseconds,
	// clamped to the server's MaxTimeout; zero means the server's
	// DefaultTimeout. The budget covers queueing and optimization: when
	// it expires mid-run, anytime heuristics still deliver a certified
	// best-so-far result.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Route overrides the server's adaptive-routing default for this
	// job: true forces the structural classifier to pick the ensemble
	// subset, false forces the historical full ensemble. Nil inherits
	// the server configuration. QO_H jobs ignore it (the classifier is
	// a QO_N feature).
	Route *bool `json:"route,omitempty"`
}

// Request is the JSON body of POST /optimize: one tagged job object,
// `{"job": {...}}`. The job's fields promote (req.Instance is
// req.Job.Instance). A body without the "job" key, or with any other
// top-level key, is rejected with a structured error document.
type Request struct {
	*Job `json:"job"`

	// Resolved state, computed at most once per request: the generated
	// workload instance and the canonical identity (fingerprint plus the
	// permutation into canonical label space).
	genQON *qon.Instance
	// replicaTo holds the coordinator-named ring successors that should
	// receive a copy of any certified result this request stores
	// (X-Replicate-To header; empty means no fan-out).
	replicaTo []string
	// rawKey is the byte identity of the source the request was decoded
	// from (bodyKey of the /optimize body or of the batch job's raw
	// JSON); empty when caching is off or bypassed.
	rawKey string
	// wholeBody marks a request decoded from a whole /optimize body, so
	// rawKey digests exactly what a byte-identical replay would send
	// and the entry it stores can be indexed by it.
	wholeBody bool
	// canonUS, when set, receives the time CanonicalID spends labeling
	// (MetricCanonUS).
	canonUS *trace.Histogram
	fpDone  bool
	fp      string
	perm    []int
	fpErr   error
	// relabelUS, when set, receives the time qon.RelabelID takes
	// (MetricRelabelUS).
	relabelUS *trace.Histogram
	rlDone    bool
	rlOK      bool
	sigma     []int
	rlDigest  [sha256.Size]byte
}

// DecodeRequest parses and validates one request body. Errors are
// safe to echo to clients.
//
// A body spelled `{"job": V}` decodes V on its own with decodeJob, so
// a job in the spelling clients send is scanned once; any other
// spelling, and any V that does not decode, goes through decodeWhole,
// whose result and errors are the same.
func DecodeRequest(data []byte) (*Request, error) {
	v, ok := envelopeValue(data)
	if !ok {
		return decodeWhole(data)
	}
	job, err := decodeJob(v)
	if err != nil {
		return decodeWhole(data)
	}
	req := &Request{Job: job}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeWhole is DecodeRequest for any body: it decodes the whole
// object, so errors name fields as the client nested them, then
// rejects top-level keys other than "job".
func decodeWhole(data []byte) (*Request, error) {
	var req Request
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	if key, ok := strayKey(data); ok {
		return nil, fmt.Errorf("request has top-level key %q: send only the job envelope {\"job\": {...}}", key)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// jsonSpace is the whitespace JSON allows between tokens.
const jsonSpace = " \t\n\r"

// envelopeValue returns V when data is `{"job": V}` up to whitespace,
// with the key unescaped in any letter case and V running to the last
// closing brace. V is not checked here: when it decodes as one JSON
// value, data is a valid object whose only key is "job".
func envelopeValue(data []byte) ([]byte, bool) {
	data = bytes.Trim(data, jsonSpace)
	if len(data) < 2 || data[0] != '{' || data[len(data)-1] != '}' {
		return nil, false
	}
	data = bytes.TrimLeft(data[1:len(data)-1], jsonSpace)
	if len(data) < 5 || data[0] != '"' || data[4] != '"' || !bytes.EqualFold(data[1:4], []byte("job")) {
		return nil, false
	}
	data = bytes.TrimLeft(data[5:], jsonSpace)
	if len(data) == 0 || data[0] != ':' {
		return nil, false
	}
	return data[1:], true
}

// strayKey returns the first top-level key of the JSON object in data
// that is not "job", matched as encoding/json matches keys to fields
// (case-insensitively, after unescaping). data must be valid JSON.
func strayKey(data []byte) (string, bool) {
	depth, expectKey := 0, false
	for i := 0; i < len(data); i++ {
		switch c := data[i]; c {
		case '"':
			end := i + 1
			for ; data[end] != '"'; end++ {
				if data[end] == '\\' {
					end++
				}
			}
			if depth == 1 && expectKey {
				key := data[i+1 : end]
				if bytes.IndexByte(key, '\\') >= 0 {
					var s string
					json.Unmarshal(data[i:end+1], &s)
					key = []byte(s)
				}
				if !bytes.EqualFold(key, []byte("job")) {
					return string(key), true
				}
			}
			expectKey, i = false, end
		case '{', '[':
			depth++
			expectKey = c == '{' && depth == 1
		case '}', ']':
			depth--
		case ',':
			expectKey = depth == 1
		}
	}
	return "", false
}

// decodeJob returns what json.Unmarshal(raw, &job) returns for a
// *Job, job and error alike. A job that sets only instance, model,
// timeout_ms and route, each key spelled exactly and at most once, with
// an instance ScanInstance accepts, a printable-ASCII model without
// escapes, a plain integer timeout_ms that fits int64, a true or false
// route, and nothing after the object but whitespace, is scanned in
// one pass (scanJob). Everything else — workload, qoh_instance, null,
// escapes, other key spellings, unknown or duplicate keys, an instance
// that fails validation — declines to encoding/json, which defines the
// result and error text of every declined input.
func decodeJob(raw []byte) (*Job, error) {
	if job, ok := scanJob(raw); ok {
		return job, nil
	}
	var job *Job
	err := json.Unmarshal(raw, &job)
	return job, err
}

// scanJob is decodeJob's one-pass scan; ok=false declines. The job
// shares no memory with data.
func scanJob(data []byte) (job *Job, ok bool) {
	s := jobScanner{b: data}
	if job, ok = s.job(); !ok {
		return nil, false
	}
	s.ws()
	return job, s.i == len(data)
}

// jobScanner walks a job object for scanJob, and the batch envelope
// around a list of them for scanBatch; every method skips the
// whitespace before its token and reports false on anything but what
// it expects.
type jobScanner struct {
	b []byte
	i int
}

// job consumes one job object in the spelling decodeJob scans.
func (s *jobScanner) job() (job *Job, ok bool) {
	const (
		hasInstance = 1 << iota
		hasModel
		hasTimeout
		hasRoute
	)
	if !s.lit('{') {
		return nil, false
	}
	job = &Job{}
	seen := 0
	for {
		key, ok := s.str()
		if !ok || !s.lit(':') {
			return nil, false
		}
		var bit int
		switch string(key) {
		case "instance":
			bit = hasInstance
			var end int
			if job.Instance, end, ok = qon.ScanInstance(s.b[s.i:]); ok {
				s.i += end
			}
		case "model":
			bit = hasModel
			var v []byte
			v, ok = s.str()
			job.Model = string(v)
		case "timeout_ms":
			bit = hasTimeout
			job.TimeoutMS, ok = s.int64()
		case "route":
			bit = hasRoute
			var route bool
			route, ok = s.bool()
			job.Route = &route
		default:
			return nil, false
		}
		if !ok || seen&bit != 0 {
			return nil, false
		}
		seen |= bit
		if s.lit('}') {
			return job, true
		}
		if !s.lit(',') {
			return nil, false
		}
	}
}

func (s *jobScanner) ws() {
	for s.i < len(s.b) && strings.IndexByte(jsonSpace, s.b[s.i]) >= 0 {
		s.i++
	}
}

// lit consumes the byte c.
func (s *jobScanner) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string of printable ASCII without escapes and returns
// its contents, which are then exactly the string encoding/json decodes.
func (s *jobScanner) str() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c == '\\' || c < 0x20 || c > 0x7e:
			return nil, false
		}
	}
	return nil, false
}

// int64 consumes an integer in JSON's spelling — no leading zeros, no
// fraction or exponent (the caller's next token rejects those) — of at
// most 18 digits, so it cannot overflow.
func (s *jobScanner) int64() (int64, bool) {
	s.ws()
	j, neg := s.i, false
	if j < len(s.b) && s.b[j] == '-' {
		j, neg = j+1, true
	}
	start, v := j, int64(0)
	for j < len(s.b) && s.b[j] >= '0' && s.b[j] <= '9' {
		v = v*10 + int64(s.b[j]-'0')
		j++
		if j-start > 18 {
			return 0, false
		}
	}
	if digits := j - start; digits == 0 || digits > 1 && s.b[start] == '0' {
		return 0, false
	}
	s.i = j
	if neg {
		v = -v
	}
	return v, true
}

// bool consumes true or false.
func (s *jobScanner) bool() (bool, bool) {
	s.ws()
	for _, lit := range [...]string{"false", "true"} {
		if bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
			s.i += len(lit)
			return lit == "true", true
		}
	}
	return false, false
}

// Validate checks the cross-field constraints the per-instance decoders
// cannot see: exactly one instance source, model agreement, size caps,
// and a sane budget. Inline instances come from the validating
// decoders ((*qon.Instance).UnmarshalJSON, (*qoh.Instance).UnmarshalJSON),
// which reject an invalid instance before it reaches a Request, so
// they are not validated again here.
func (r *Request) Validate() error {
	if r.Job == nil {
		return fmt.Errorf(`request needs the job envelope {"job": {...}}`)
	}
	sources := 0
	for _, set := range []bool{r.Instance != nil, r.QOHInstance != nil, r.Workload != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("request needs exactly one of instance, qoh_instance or workload (got %d)", sources)
	}
	switch r.Model {
	case "", "qon":
		if r.QOHInstance != nil {
			return fmt.Errorf("qoh_instance requires model %q", "qoh")
		}
	case "qoh":
		if r.QOHInstance == nil {
			return fmt.Errorf("model %q requires qoh_instance", "qoh")
		}
	default:
		return fmt.Errorf("unknown model %q (want qon or qoh)", r.Model)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be non-negative, got %d", r.TimeoutMS)
	}
	if in := r.Instance; in != nil {
		// The n ≥ 1 floor matters: an empty query_graph decodes to a
		// valid zero-relation instance (and JSON key matching is
		// case-insensitive, so "instAnCe" reaches this field too).
		if in.N() < 1 {
			return fmt.Errorf("instance has no relations")
		}
		if in.N() > MaxRequestN {
			return fmt.Errorf("instance has %d relations, cap is %d", in.N(), MaxRequestN)
		}
	}
	if in := r.QOHInstance; in != nil {
		if in.N() < 1 {
			return fmt.Errorf("qoh instance has no relations")
		}
		if in.N() > MaxRequestQOHN {
			return fmt.Errorf("qoh instance has %d relations, cap is %d", in.N(), MaxRequestQOHN)
		}
	}
	if w := r.Workload; w != nil {
		// The serving-layer size cap first, then the family grammar's
		// own semantic constraints (shape, edge_prob, tau, skew, …).
		if w.N > MaxRequestN {
			return fmt.Errorf("workload n=%d out of range [2, %d]", w.N, MaxRequestN)
		}
		if err := w.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// routeEnabled resolves the request's adaptive-routing switch: the
// job-level override when present, otherwise the server default. QO_H
// requests are never routed (the classifier is a QO_N feature).
func (r *Request) routeEnabled(def bool) bool {
	if r.model() == "qoh" {
		return false
	}
	if r.Route != nil {
		return *r.Route
	}
	return def
}

// model returns the effective model after validation.
func (r *Request) model() string {
	if r.QOHInstance != nil {
		return "qoh"
	}
	return "qon"
}

// ResolveBudget resolves the request's deadline budget from its
// timeout_ms and the given defaults. The worker and the cluster
// coordinator both call it, so the coordinator propagates the same
// budget across the hop.
func (r *Request) ResolveBudget(def, max time.Duration) time.Duration {
	d := time.Duration(r.TimeoutMS) * time.Millisecond
	if d <= 0 {
		d = def
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}

// Key is the request's instance identity: the model, the instance
// size and the graph-invariant canonical fingerprint of the resolved
// instance (replica.Key), deliberately excluding timeout_ms — a
// certified full-rung result is a pure function of the instance (up
// to heuristic seeds, which only certified winners survive), so it is
// valid for any later budget. Because the fingerprint is
// relabel-invariant, cosmetically different and relabeled duplicates
// share a key. Workers store certified results under it and the
// cluster coordinator routes by it, so every relabeling of one query
// lands on the worker that holds its entry and the ring arcs the
// coordinator digests match the keys workers store. Encoding the size
// in the key lets the replication trust boundary bind an offered key
// to its report (replica.Entry.Validate). Key is empty when the
// instance cannot be resolved (an ungenerable workload): such a
// request is neither cached nor routed by identity.
func (r *Request) Key() string {
	fp, perm, err := r.CanonicalID()
	if err != nil {
		return ""
	}
	return replica.Key(r.model(), len(perm), fp)
}

// qonInstance resolves the QO_N instance to optimize — inline or
// generated from the workload spec. Generation happens at most once
// per request; the canonical-identity path and the engine run share
// the same instance.
func (r *Request) qonInstance() (*qon.Instance, error) {
	if r.Instance != nil {
		return r.Instance, nil
	}
	if r.genQON != nil {
		return r.genQON, nil
	}
	in, err := r.Workload.Generate()
	if err != nil {
		return nil, err
	}
	r.genQON = in
	return in, nil
}

// CanonicalID resolves the request's canonical identity: the
// graph-invariant instance fingerprint and the permutation pi mapping
// the request's relation labels into canonical space (pi[v] = canonical
// label of request label v). Both are computed at most once per
// request; the labeling itself (not the generation of a workload
// instance) is timed into canonUS. Not safe for concurrent use on one
// Request — resolve before sharing across goroutines.
func (r *Request) CanonicalID() (string, []int, error) {
	if r.fpDone {
		return r.fp, r.perm, r.fpErr
	}
	r.fpDone = true
	var in *qon.Instance
	if r.model() != "qoh" {
		if in, r.fpErr = r.qonInstance(); r.fpErr != nil {
			return "", nil, r.fpErr
		}
	}
	t0 := time.Now()
	if in != nil {
		r.fp, r.perm = qon.CanonicalID(in)
	} else {
		r.fp, r.perm = qoh.CanonicalID(r.QOHInstance)
	}
	r.canonUS.Observe(time.Since(t0).Microseconds())
	return r.fp, r.perm, nil
}

// relabelID resolves the request's relabel identity (qon.RelabelID):
// the color order sigma and the digest of the instance relabeled by it,
// the key of the cache's relabel index. ok is false for QO_H requests,
// for workloads that do not generate, and for instances whose
// refinement is not discrete; those take the canonical path alone.
// Computed at most once per request and timed into relabelUS. Not safe
// for concurrent use on one Request.
func (r *Request) relabelID() (sigma []int, digest [sha256.Size]byte, ok bool) {
	if r.rlDone {
		return r.sigma, r.rlDigest, r.rlOK
	}
	r.rlDone = true
	if r.model() == "qoh" {
		return nil, digest, false
	}
	in, err := r.qonInstance()
	if err != nil {
		return nil, digest, false
	}
	t0 := time.Now()
	r.sigma, r.rlDigest, r.rlOK = qon.RelabelID(in)
	r.relabelUS.Observe(time.Since(t0).Microseconds())
	return r.sigma, r.rlDigest, r.rlOK
}

// relabelSource returns what the relabel index stores for this
// request's instance — its digest, fingerprint and π∘σ⁻¹ — or nil when
// either identity is unresolved or the refinement is not discrete.
func (r *Request) relabelSource() *relabelSource {
	sigma, digest, ok := r.relabelID()
	if !ok {
		return nil
	}
	fp, perm, err := r.CanonicalID()
	if err != nil {
		return nil
	}
	src := &relabelSource{digest: digest, fp: fp, perm: make([]int, len(perm))}
	for v, p := range sigma {
		src.perm[p] = perm[v]
	}
	return src
}

// BatchRequest is the JSON body of POST /optimize/batch.
type BatchRequest struct {
	// Jobs are processed as one admission group per distinct instance
	// shape; results come back in job order.
	Jobs []*Job `json:"jobs"`

	// raw holds each decoded job's exact JSON bytes, the source of its
	// byte identity (bodyKey) for canonical-hit attribution.
	raw []json.RawMessage
}

// DecodeBatchRequest parses one batch body and applies the batch-level
// constraints (well-formed JSON, 1..maxJobs jobs). Per-job validation
// is the handler's job — one invalid job yields a per-job error
// document, not a batch-level failure.
//
// A body spelled `{"jobs": [J, ...]}` whose every job J decodeJob
// would scan is decoded in one pass (scanBatch); any other body goes
// through decodeBatchWhole, whose result and errors are the same.
func DecodeBatchRequest(data []byte, maxJobs int) (*BatchRequest, error) {
	if br, ok := scanBatch(data, maxJobs); ok {
		return br, nil
	}
	return decodeBatchWhole(data, maxJobs)
}

// scanBatch is DecodeBatchRequest's one-pass scan. It accepts the key
// "jobs" spelled exactly, as the only key, holding an array of 1 to
// maxJobs jobs that jobScanner.job accepts, with nothing after the
// object but whitespace; everything else declines. The jobs' raw bytes
// are copied out of data in one allocation.
func scanBatch(data []byte, maxJobs int) (*BatchRequest, bool) {
	s := jobScanner{b: data}
	if !s.lit('{') {
		return nil, false
	}
	if key, ok := s.str(); !ok || string(key) != "jobs" || !s.lit(':') || !s.lit('[') {
		return nil, false
	}
	br := &BatchRequest{}
	var spans []int // start and end offset of each job in data
	for {
		s.ws()
		start := s.i
		job, ok := s.job()
		if !ok || maxJobs > 0 && len(br.Jobs) == maxJobs {
			return nil, false
		}
		br.Jobs = append(br.Jobs, job)
		spans = append(spans, start, s.i)
		if s.lit(']') {
			break
		}
		if !s.lit(',') {
			return nil, false
		}
	}
	if !s.lit('}') {
		return nil, false
	}
	if s.ws(); s.i != len(data) {
		return nil, false
	}
	base := spans[0]
	raw := bytes.Clone(data[base:spans[len(spans)-1]])
	br.raw = make([]json.RawMessage, len(br.Jobs))
	for k := range br.raw {
		a, b := spans[2*k]-base, spans[2*k+1]-base
		br.raw[k] = raw[a:b:b]
	}
	return br, true
}

// decodeBatchWhole is DecodeBatchRequest for any body: encoding/json
// splits the envelope into raw jobs and decodeJob decodes each.
func decodeBatchWhole(data []byte, maxJobs int) (*BatchRequest, error) {
	var env struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("decoding batch request: %w", err)
	}
	if len(env.Jobs) == 0 {
		return nil, fmt.Errorf("batch request needs a non-empty jobs array")
	}
	if maxJobs > 0 && len(env.Jobs) > maxJobs {
		return nil, fmt.Errorf("batch has %d jobs, cap is %d", len(env.Jobs), maxJobs)
	}
	br := &BatchRequest{Jobs: make([]*Job, len(env.Jobs)), raw: env.Jobs}
	for i, raw := range env.Jobs {
		job, err := decodeJob(raw)
		if err != nil {
			return nil, fmt.Errorf("decoding batch request: job %d: %w", i, err)
		}
		if job == nil {
			return nil, fmt.Errorf("job %d is null", i)
		}
		br.Jobs[i] = job
	}
	return br, nil
}
