package replica

import (
	"encoding/json"
	"testing"
)

// FuzzCacheOfferJSON fuzzes the replication decoder — the trust
// boundary between cache replicas. A partitioned peer, a chaos fault
// or a hostile client can POST any byte soup to /cache/offer; the
// decoder must never panic, never hand back a null entry, and every
// entry that passes Validate must survive a marshal→decode→Validate
// round trip (a replicated entry re-offered downstream must still be
// acceptable).
func FuzzCacheOfferJSON(f *testing.F) {
	// A well-formed single-entry offer, the async fan-out's shape.
	f.Add(`{"from":"http://w1:8081","entries":[{"key":"s2:qon:3:deadbeef","raw_key":"ab12",` +
		`"report":{"model":"qon","n":3,"best":{"winner":"dp","sequence":[2,0,1],` +
		`"cost":"42","cost_log2":5.39,"exact":true,"certified":true},"runs":[]}}]}`)
	// A repair-shaped multi-entry offer.
	f.Add(`{"entries":[` +
		`{"key":"s2:qon:1:aa","report":{"model":"qon","n":1,"best":{"winner":"greedy","sequence":[0],"cost":"7","certified":true}}},` +
		`{"key":"s2:qoh:2:bb","report":{"model":"qoh","n":2,"best":{"winner":"qoh-dp","sequence":[1,0],"cost":"9","certified":true}}}]}`)
	// Rejectable entries: uncertified, costless, truncated permutation,
	// model mismatch, bad key shapes (including the pre-binding
	// model:fingerprint format under the current schema tag),
	// key↔report size mismatch, implausible n.
	f.Add(`{"entries":[{"key":"s2:qon:2:ff","report":{"n":2,"best":{"winner":"dp","sequence":[0,1],"certified":false}}}]}`)
	f.Add(`{"entries":[{"key":"s2:qon:2:ff","report":{"n":2,"best":{"winner":"dp","sequence":[0,1],"certified":true}}}]}`)
	f.Add(`{"entries":[{"key":"s2:qon:3:ff","report":{"n":3,"best":{"winner":"dp","sequence":[0,1],"cost":"4","certified":true}}}]}`)
	f.Add(`{"entries":[{"key":"s2:qon:1:ff","report":{"model":"qoh","n":1,"best":{"winner":"dp","sequence":[0],"cost":"4","certified":true}}}]}`)
	f.Add(`{"entries":[{"key":"s2:qon:ff","report":{"n":1,"best":{"winner":"dp","sequence":[0],"cost":"4","certified":true}}}]}`)
	f.Add(`{"entries":[{"key":"s2:qon:9:ff","report":{"n":2,"best":{"winner":"dp","sequence":[0,1],"cost":"4","certified":true}}}]}`)
	f.Add(`{"entries":[{"key":"s2:qon:x:ff","report":{"n":2,"best":{"winner":"dp","sequence":[0,1],"cost":"4","certified":true}}}]}`)
	f.Add(`{"entries":[{"key":"nocolon","report":{"n":1,"best":{"winner":"dp","sequence":[0],"cost":"4","certified":true}}}]}`)
	f.Add(`{"entries":[{"key":"s2:qon:1:","report":null}]}`)
	f.Add(`{"entries":[{"key":"s2:qon:1048577:ff","report":{"n":1048577,"best":{"winner":"dp","certified":true}}}]}`)
	// Structural rejects: null entry, empty array, overlong array shape.
	// A legacy (untagged) key and an exact winner a cheaper run refutes.
	f.Add(`{"entries":[{"key":"qon:1:ff","report":{"n":1,"best":{"winner":"dp","sequence":[0],"cost":"4","certified":true}}}]}`)
	f.Add(`{"entries":[{"key":"s2:qon:1:ff","report":{"n":1,"best":{"winner":"dp","sequence":[0],"cost":"4","exact":true,"certified":true},` +
		`"runs":[{"name":"kbz","cost":"2","certified":true}]}}]}`)
	f.Add(`{"entries":[null]}`)
	f.Add(`{"entries":[]}`)
	f.Add(`{"from":"x"}`)
	// Truncation artifacts (chaos.NetTruncate) and junk.
	f.Add(`{"entries":[{"key":"s2:qon:deadbeef","report":{"best":{"winner":"dp","seq`)
	f.Add(`{}`)
	f.Add(`null`)
	f.Add(`[]`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			return
		}
		off, err := DecodeOffer([]byte(input), 0)
		if err != nil {
			return
		}
		if len(off.Entries) == 0 || len(off.Entries) > DefaultMaxOfferEntries {
			t.Fatalf("decoder accepted %d entries", len(off.Entries))
		}
		for i, e := range off.Entries {
			if e == nil {
				t.Fatalf("decoder handed back null entry %d", i)
			}
			if e.Validate() != nil {
				continue // the accept/reject loop drops it; nothing to round-trip
			}
			// An accepted entry must survive re-offering: marshal, decode,
			// validate again.
			redo, err := json.Marshal(&OfferRequest{Entries: []*Entry{e}})
			if err != nil {
				t.Fatalf("entry %d does not re-encode: %v", i, err)
			}
			again, err := DecodeOffer(redo, 0)
			if err != nil {
				t.Fatalf("entry %d fails a decode round trip: %v", i, err)
			}
			if err := again.Entries[0].Validate(); err != nil {
				t.Fatalf("entry %d fails validation after a round trip: %v", i, err)
			}
		}
	})
}
