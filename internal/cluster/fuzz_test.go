package cluster

import (
	"encoding/json"
	"testing"
)

// FuzzWorkerResponseJSON fuzzes the coordinator's response decoders —
// the trust boundary between the coordinator and its workers. A chaos
// fault (truncate) or a buggy worker can hand the coordinator any byte
// soup; the decoders must never panic, never accept an uncertified or
// non-permutation plan, and must accept only documents that survive a
// re-encode round trip (a decoded doc the coordinator would relay must
// still be a valid doc).
func FuzzWorkerResponseJSON(f *testing.F) {
	// A certified single result, the shape tryWorker relays.
	f.Add(`{"model":"qon","n":3,"rung":"full","fingerprint":"deadbeef",` +
		`"report":{"model":"qon","n":3,"best":{"winner":"dp","sequence":[2,0,1],` +
		`"cost":"42","cost_log2":5.39,"exact":true,"certified":true},"runs":[],"wall_ms":1.5}}`)
	// Cached variant.
	f.Add(`{"model":"qon","n":2,"rung":"full","cached":true,"fingerprint":"ff",` +
		`"report":{"model":"qon","n":2,"best":{"winner":"greedy","sequence":[0,1],` +
		`"cost":"7","certified":true},"runs":[]}}`)
	// Rejectable results: uncertified winner, truncated permutation,
	// out-of-range relation, no winning plan, implausible n, and a
	// certified plan for an empty instance (no worker serves n = 0).
	f.Add(`{"n":2,"report":{"best":{"winner":"dp","sequence":[0,1],"certified":false}}}`)
	f.Add(`{"n":3,"report":{"best":{"winner":"dp","sequence":[0,1],"certified":true}}}`)
	f.Add(`{"n":2,"report":{"best":{"winner":"dp","sequence":[0,2],"certified":true}}}`)
	f.Add(`{"n":2,"report":{"runs":[]}}`)
	f.Add(`{"n":1048577,"report":{"best":{"winner":"dp","certified":true}}}`)
	f.Add(`{"n":0,"report":{"n":0,"best":{"winner":"dp","sequence":[],"cost":"1","certified":true},"runs":[]}}`)
	// Error documents, well-formed and kindless.
	f.Add(`{"error":{"kind":"overloaded","message":"q full","retry_after_ms":250,"request_id":"co-1"}}`)
	f.Add(`{"error":{"message":"no kind"}}`)
	// Batch documents.
	f.Add(`{"jobs":2,"shapes":1,"results":[` +
		`{"index":0,"result":{"n":2,"report":{"best":{"winner":"dp","sequence":[1,0],"cost":"9","certified":true}}}},` +
		`{"index":1,"error":{"kind":"bad_request","message":"nope"}}]}`)
	// Cost-less winner: decodes but must fail validation.
	f.Add(`{"n":2,"report":{"best":{"winner":"dp","sequence":[0,1],"certified":true}}}`)
	f.Add(`{"jobs":1,"shapes":1,"results":[{"index":0}]}`)
	f.Add(`{"jobs":1,"shapes":1,"results":[{"index":0,` +
		`"result":{"n":1,"report":{"best":{"winner":"dp","sequence":[0],"certified":true}}},` +
		`"error":{"kind":"both"}}]}`)
	// Truncation artifacts (what chaos.NetTruncate produces) and junk.
	f.Add(`{"model":"qon","n":3,"report":{"best":{"winner":"dp","seq`)
	f.Add(`{}`)
	f.Add(`null`)
	f.Add(`[]`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			return
		}
		data := []byte(input)

		if res, err := decodeWorkerResult(data); err == nil {
			// Accepted results carry the full certified-permutation
			// contract, and re-encoding must not lose it.
			if res.N < 1 || !res.Report.Best.Certified || len(res.Report.Best.Sequence) != res.N {
				t.Fatalf("decoder accepted n=%d with a %d-relation winner (certified=%v)",
					res.N, len(res.Report.Best.Sequence), res.Report.Best.Certified)
			}
			if err := res.Report.CheckServed(res.N); err != nil {
				t.Fatalf("decoder accepted a result its own validator rejects: %v", err)
			}
			redo, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("accepted result does not re-encode: %v", err)
			}
			if _, err := decodeWorkerResult(redo); err != nil {
				t.Fatalf("accepted result fails a decode round trip: %v", err)
			}
		}

		if doc, err := decodeWorkerError(data); err == nil {
			if doc.Error.Kind == "" {
				t.Fatal("decoder accepted an error document without a kind")
			}
			redo, err := json.Marshal(doc)
			if err != nil {
				t.Fatalf("accepted error document does not re-encode: %v", err)
			}
			if _, err := decodeWorkerError(redo); err != nil {
				t.Fatalf("accepted error document fails a decode round trip: %v", err)
			}
		}

		for _, want := range []int{1, 2, 8} {
			br, err := decodeWorkerBatch(data, want)
			if err != nil {
				continue
			}
			if len(br.Results) != want {
				t.Fatalf("decoder accepted %d results when %d jobs were sent", len(br.Results), want)
			}
			for k, jr := range br.Results {
				if (jr.Result == nil) == (jr.Error == nil) {
					t.Fatalf("job %d: accepted without exactly one of result/error", k)
				}
				if jr.Result != nil {
					if err := jr.Result.Report.CheckServed(jr.Result.N); err != nil {
						t.Fatalf("job %d: accepted result fails validation: %v", k, err)
					}
				} else if jr.Error.Kind == "" {
					t.Fatalf("job %d: accepted error document without a kind", k)
				}
			}
		}
	})
}
