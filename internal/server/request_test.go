package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"approxqo/internal/workload"
)

// clientJobs are jobs in the spelling this repository's clients send
// (json.Marshal of a Job with an inline instance), compact and
// indented.
func clientJobs(t *testing.T) [][]byte {
	t.Helper()
	in, err := workload.Generate(workload.Params{N: 8, Shape: workload.Random, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	route := false
	var out [][]byte
	for _, job := range []*Job{
		{Instance: in},
		{Instance: in, Model: "qon", TimeoutMS: 250, Route: &route},
	} {
		compact, err := json.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(job, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, compact, indented)
	}
	return out
}

// TestScanJobTakesClientSpelling pins that decodeJob's one-pass scan,
// not the encoding/json fallback, decodes the jobs clients send, and
// that it declines every spelling outside its rule. A fallback hides a
// scan that stopped firing: results stay right and only the time
// grows, so the scan's firing is asserted directly.
func TestScanJobTakesClientSpelling(t *testing.T) {
	for _, data := range clientJobs(t) {
		got, ok := scanJob(data)
		if !ok {
			t.Fatalf("scan declined a client job: %.80s…", data)
		}
		var want *Job
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if a, b := mustMarshal(t, got), mustMarshal(t, want); a != b {
			t.Fatalf("scan decoded %s, encoding/json %s", a, b)
		}
	}
	scanned, declined := strictJobSeeds()
	for _, job := range scanned {
		if _, ok := scanJob([]byte(job)); !ok {
			t.Errorf("scan declined %s", job)
		}
	}
	for _, job := range declined {
		if _, ok := scanJob([]byte(job)); ok {
			t.Errorf("scan took %s, which its rule declines", job)
		}
	}
}

// TestDecodeDoesNotAliasBody pins the pooled-body lifetime rule: a
// decoded /optimize or batch request shares no memory with the body it
// came from, so the handler may recycle the body buffer while the
// request's instance lives on (in the cache, in an abandoned engine
// run). Each body is decoded, overwritten with 0xFF, and re-marshaled;
// the result must equal the re-marshal of a decode of a pristine copy.
func TestDecodeDoesNotAliasBody(t *testing.T) {
	jobs := []string{
		`{"workload":{"shape":"star","n":6,"seed":3},"timeout_ms":250,"route":true}`,
		`{"model":"qoh","qoh_instance":{"query_graph":{"n":3,"edges":[[0,1],[1,2]]},` +
			`"sizes":["8","8","8"],"selectivities":[["1","0.5","1"],["0.5","1","0.5"],["1","0.5","1"]],"memory":"6"}}`,
	}
	for _, data := range clientJobs(t) {
		jobs = append(jobs, string(data))
	}
	scanned, declined := strictJobSeeds()
	jobs = append(append(jobs, scanned...), declined...)

	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xFF
		}
	}
	for _, job := range jobs {
		body := []byte(`{"job":` + job + `}`)
		want, err := DecodeRequest(bytes.Clone(body))
		if err != nil {
			continue // rejected bodies leave nothing behind
		}
		buf := bytes.Clone(body)
		req, err := DecodeRequest(buf)
		if err != nil {
			t.Fatal(err)
		}
		scribble(buf)
		if a, b := mustMarshal(t, req), mustMarshal(t, want); a != b {
			t.Errorf("request decoded from %.60s… changed when its body was overwritten:\n%s\nwant %s", body, a, b)
		}
	}

	var valid, client []string
	for _, job := range jobs {
		if _, err := DecodeBatchRequest([]byte(`{"jobs":[`+job+`]}`), 0); err == nil {
			valid = append(valid, job)
		}
	}
	for _, data := range clientJobs(t) {
		client = append(client, string(data))
	}
	// The second batch is one scanBatch takes; the first declines to
	// encoding/json (it holds workload jobs).
	for _, batch := range [][]string{valid, client} {
		body := []byte(`{"jobs":[` + strings.Join(batch, ",") + `]}`)
		want, err := DecodeBatchRequest(bytes.Clone(body), 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := bytes.Clone(body)
		br, err := DecodeBatchRequest(buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		scribble(buf)
		if a, b := mustMarshal(t, br), mustMarshal(t, want); a != b {
			t.Errorf("batch changed when its body was overwritten:\n%s\nwant %s", a, b)
		}
		for i := range br.raw {
			if bodyKey(br.raw[i]) != bodyKey(want.raw[i]) {
				t.Errorf("batch job %d byte identity changed when its body was overwritten", i)
			}
		}
	}
}

// TestScanBatchTakesClientSpelling pins that DecodeBatchRequest's
// one-pass envelope scan, not the encoding/json fallback, decodes the
// batches clients send (json.Marshal of a BatchRequest of inline
// jobs, compact and indented), to the same jobs and raw job bytes.
func TestScanBatchTakesClientSpelling(t *testing.T) {
	var jobs []*Job
	for _, data := range clientJobs(t) {
		var job *Job
		if err := json.Unmarshal(data, &job); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	compact, err := json.Marshal(&BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(&BatchRequest{Jobs: jobs}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{compact, indented} {
		got, ok := scanBatch(body, len(jobs))
		if !ok {
			t.Fatalf("scan declined a client batch: %.80s…", body)
		}
		want, err := decodeBatchWhole(body, len(jobs))
		if err != nil {
			t.Fatal(err)
		}
		if a, b := mustMarshal(t, got), mustMarshal(t, want); a != b {
			t.Fatalf("scan decoded %s, encoding/json %s", a, b)
		}
		for i := range want.raw {
			if !bytes.Equal(got.raw[i], want.raw[i]) {
				t.Fatalf("job %d raw bytes %q, encoding/json %q", i, got.raw[i], want.raw[i])
			}
		}
		if _, ok := scanBatch(body, len(jobs)-1); ok {
			t.Fatal("scan took a batch over its job cap")
		}
	}
}
