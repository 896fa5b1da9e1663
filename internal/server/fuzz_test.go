package server

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// FuzzServerRequestJSON mirrors qon's FuzzInstanceJSON for the daemon's
// request decoder: arbitrary JSON must never panic DecodeRequest, its
// one-scan envelope path must agree with decodeWhole (acceptance, error
// text and decoded job), and every accepted request must be internally consistent — it validates,
// resolves a budget within the configured bounds, produces a valid
// instance, and survives a marshal/decode round trip.
func FuzzServerRequestJSON(f *testing.F) {
	f.Add(`{"job":{"workload":{"shape":"chain","n":5}}}`)
	f.Add(`{"job":{"workload":{"shape":"random","n":8,"seed":7,"edge_prob":0.5},"timeout_ms":250}}`)
	f.Add(`{"job":{"model":"qon","instance":{"query_graph":{"n":2,"edges":[[0,1]]},"sizes":["2","2"],` +
		`"selectivities":[["1","2"],["2","1"]],"access_costs":[["2","2"],["2","2"]]}}}`)
	f.Add(`{"job":{"model":"qoh","qoh_instance":{"query_graph":{"n":3,"edges":[[0,1],[1,2]]},` +
		`"sizes":["8","8","8"],"selectivities":[["1","0.5","1"],["0.5","1","0.5"],["1","0.5","1"]],"memory":"6"}}}`)
	f.Add(`{"job":{"workload":{"shape":"chain","n":5},"instance":{"query_graph":{"n":2,"edges":[[0,1]]}}}}`)
	f.Add(`{"job":{"workload":{"shape":"pentagon","n":5}}}`)
	f.Add(`{"job":{"workload":{"shape":"chain","n":5},"timeout_ms":-1}}`)
	f.Add(`{}`)
	f.Add(`[]`)
	f.Add(`null`)
	// Spellings around DecodeRequest's `{"job": V}` path: taken, and
	// falling back to decodeWhole.
	const w = `{"workload":{"shape":"star","n":6},"timeout_ms":250}`
	for _, body := range []string{
		" \t\r\n{ \n\"JoB\" \t:\r " + w + " \n} \n",
		`{"j\u006fb":` + w + `}`,
		`{"job":` + w + `,"job":{"timeout_ms":9}}`,
		`{"job":` + w + `,"workload":{"shape":"star","n":6}}`,
		`{"workload":{"shape":"star","n":6},"job":` + w + `}`,
		`{"job":` + w + `}}`,
		`{"job":` + w + `} x`,
		"\v{\"job\":" + w + "}",
		"{\"job\":" + w + "\v}",
		`{"job":null}`,
		`{"job":}`,
		`{"job":[]}`,
		`{"job":{"timeout_ms":"x"}}`,
		`{"jobs":` + w + `}`,
		`{"bob":` + w + `}`,
	} {
		f.Add(body)
	}
	scanned, declined := strictJobSeeds()
	for _, job := range append(scanned, declined...) {
		f.Add(`{"job":` + job + `}`)
	}
	f.Add(`{"job":` + scanned[0] + ` x}`) // trailing bytes after the job
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			return
		}
		req, err := DecodeRequest([]byte(input))
		ref, rerr := decodeWhole([]byte(input))
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("DecodeRequest error %v, decodeWhole error %v", err, rerr)
		}
		if err != nil {
			return
		}
		if a, b := mustMarshal(t, req), mustMarshal(t, ref); a != b {
			t.Fatalf("DecodeRequest decoded %s, decodeWhole %s", a, b)
		}
		// Accepted requests were validated on decode; Validate must agree
		// with itself on a second pass.
		if err := req.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid request: %v", err)
		}
		if m := req.model(); m != "qon" && m != "qoh" {
			t.Fatalf("accepted request resolves to unknown model %q", m)
		}
		def, max := 2*time.Second, 30*time.Second
		if d := req.ResolveBudget(def, max); d <= 0 || d > max {
			t.Fatalf("budget %v out of range (0, %v]", d, max)
		}
		if req.model() == "qon" {
			in, err := req.qonInstance()
			if err != nil {
				t.Fatalf("accepted qon request failed to resolve an instance: %v", err)
			}
			if err := in.Validate(); err != nil {
				t.Fatalf("accepted request produced an invalid instance: %v", err)
			}
			if n := in.N(); n < 1 || n > MaxRequestN {
				t.Fatalf("accepted request produced instance with n=%d, cap %d", n, MaxRequestN)
			}
		}
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal of accepted request: %v", err)
		}
		back, err := DecodeRequest(data)
		if err != nil {
			t.Fatalf("reparse of own output: %v", err)
		}
		if back.model() != req.model() {
			t.Fatalf("round trip changed model: %q -> %q", req.model(), back.model())
		}
		if back.ResolveBudget(def, max) != req.ResolveBudget(def, max) {
			t.Fatal("round trip changed the deadline budget")
		}
	})
}

// FuzzBatchRequestJSON covers the batch decoder: arbitrary JSON must
// never panic DecodeBatchRequest, and every accepted batch must honour
// the batch-level contract — 1..maxJobs non-null jobs, a marshal/decode
// round trip that preserves the job count, and, for each job that
// validates, a resolvable model, an in-range budget, and a canonical
// identity that is deterministic across calls.
func FuzzBatchRequestJSON(f *testing.F) {
	f.Add(`{"jobs":[{"workload":{"shape":"chain","n":5}}]}`)
	f.Add(`{"jobs":[{"workload":{"shape":"star","n":6,"seed":3},"timeout_ms":250},` +
		`{"workload":{"shape":"star","n":6,"seed":3}}]}`)
	f.Add(`{"jobs":[{"model":"qon","instance":{"query_graph":{"n":2,"edges":[[0,1]]},"sizes":["2","2"],` +
		`"selectivities":[["1","2"],["2","1"]],"access_costs":[["2","2"],["2","2"]]}}]}`)
	f.Add(`{"jobs":[{"model":"qoh","qoh_instance":{"query_graph":{"n":3,"edges":[[0,1],[1,2]]},` +
		`"sizes":["8","8","8"],"selectivities":[["1","0.5","1"],["0.5","1","0.5"],["1","0.5","1"]],"memory":"6"}}]}`)
	f.Add(`{"jobs":[{"workload":{"shape":"chain","n":5}},{"model":"nonsense"}]}`)
	f.Add(`{"jobs":[]}`)
	f.Add(`{"jobs":[null]}`)
	f.Add(`{"jobs":"nope"}`)
	f.Add(`{}`)
	f.Add(`null`)
	scanned, declined := strictJobSeeds()
	for _, job := range append(scanned, declined...) {
		f.Add(`{"jobs":[` + job + `]}`)
	}
	f.Add(`{"jobs":[` + strings.Join(scanned, ",") + `]}`)
	f.Add(`{"jobs":[` + scanned[0] + ` x]}`) // trailing bytes after a job
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			return
		}
		const maxJobs = 8
		br, err := DecodeBatchRequest([]byte(input), maxJobs)
		ref, rerr := decodeBatchReference([]byte(input), maxJobs)
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("DecodeBatchRequest error %v, encoding/json reference error %v", err, rerr)
		}
		if err != nil {
			return
		}
		if a, b := mustMarshal(t, br), mustMarshal(t, ref); a != b {
			t.Fatalf("DecodeBatchRequest decoded %s, encoding/json reference %s", a, b)
		}
		if len(br.Jobs) == 0 || len(br.Jobs) > maxJobs {
			t.Fatalf("decoder accepted %d jobs outside [1, %d]", len(br.Jobs), maxJobs)
		}
		def, max := 2*time.Second, 30*time.Second
		for i, job := range br.Jobs {
			if job == nil {
				t.Fatalf("decoder accepted a null job at index %d", i)
			}
			req := &Request{Job: job}
			if err := req.Validate(); err != nil {
				continue // per-job failure: the handler answers it with an error doc
			}
			if m := req.model(); m != "qon" && m != "qoh" {
				t.Fatalf("job %d resolves to unknown model %q", i, m)
			}
			if d := req.ResolveBudget(def, max); d <= 0 || d > max {
				t.Fatalf("job %d budget %v out of range (0, %v]", i, d, max)
			}
			// Canonicalization cost grows with instance size; bound the
			// per-input work so the fuzzer keeps its throughput.
			if req.model() == "qon" {
				if in, err := req.qonInstance(); err != nil || in.N() > 12 {
					continue
				}
			} else if job.QOHInstance.N() > 12 {
				continue
			}
			fp, perm, err := req.CanonicalID()
			if err != nil {
				continue // ungenerable workload: the handler skips caching
			}
			if fp == "" {
				t.Fatalf("job %d canonicalized to an empty fingerprint", i)
			}
			fp2, _, _ := (&Request{Job: job}).CanonicalID()
			if fp2 != fp {
				t.Fatalf("job %d fingerprint not deterministic: %q vs %q", i, fp, fp2)
			}
			if req.model() == "qon" {
				in, _ := req.qonInstance()
				if len(perm) != in.N() {
					t.Fatalf("job %d permutation has %d entries for n=%d", i, len(perm), in.N())
				}
			}
		}
		data, err := json.Marshal(br)
		if err != nil {
			t.Fatalf("marshal of accepted batch: %v", err)
		}
		back, err := DecodeBatchRequest(data, maxJobs)
		if err != nil {
			t.Fatalf("reparse of own output: %v", err)
		}
		if len(back.Jobs) != len(br.Jobs) {
			t.Fatalf("round trip changed job count: %d -> %d", len(br.Jobs), len(back.Jobs))
		}
	})
}

// strictJobSeeds are job objects around decodeJob's one-pass scan:
// spellings it scans, and spellings it declines, one per decline rule.
// Each decodes to the same job and error either way.
func strictJobSeeds() (scanned, declined []string) {
	const (
		inst    = `{"query_graph":{"n":2,"edges":[[0,1]]},"selectivities":[["1","0x.8p+0"],["0x.8p+0","1"]],"sizes":["4","4"],"access_costs":[["4","2"],["2","4"]]}`
		invalid = `{"query_graph":{"n":2,"edges":[[0,1]]},"selectivities":[["1","2"],["2","1"]],"sizes":["4","4"],"access_costs":[["4","2"],["2","4"]]}`
	)
	scanned = []string{
		`{"instance":` + inst + `,"model":"qon","timeout_ms":250,"route":true}`,
		` { "route" : false , "instance" : ` + inst + ` } `,
		`{"instance":` + inst + `,"model":"QON"}`,
	}
	declined = []string{
		`{"instance":` + inst + `,"route":null}`,
		`{"Instance":` + inst + `}`,
		`{"instance":` + inst + `,"instance":` + inst + `}`,
		`{"instance":` + inst + `,"unknown":1}`,
		`{"instance":` + invalid + `}`,
		`{"instance":null}`,
		`{"instance":` + inst + `,"model":"q\u006fn"}`,
		`{"instance":` + inst + `,"model":"qön"}`,
		`{"instance":` + inst + `,"route":true,"route":false}`,
		`{"instance":` + inst + `,"route":tru}`,
	}
	for _, ms := range []string{"-1", "0", "-0", "999999999999999999"} {
		scanned = append(scanned, `{"instance":`+inst+`,"timeout_ms":`+ms+`}`)
	}
	for _, ms := range []string{"1e3", "2.5", "007", "-", `"5"`, "9223372036854775807",
		"9223372036854775808", "-9223372036854775808", "99999999999999999999"} {
		declined = append(declined, `{"instance":`+inst+`,"timeout_ms":`+ms+`}`)
	}
	return scanned, declined
}

// decodeBatchReference is DecodeBatchRequest with every job decoded by
// encoding/json, the reference for decodeJob's one-pass scan.
func decodeBatchReference(data []byte, maxJobs int) (*BatchRequest, error) {
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
		if err := json.Unmarshal(raw, &br.Jobs[i]); err != nil {
			return nil, fmt.Errorf("decoding batch request: job %d: %w", i, err)
		}
		if br.Jobs[i] == nil {
			return nil, fmt.Errorf("job %d is null", i)
		}
	}
	return br, nil
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
