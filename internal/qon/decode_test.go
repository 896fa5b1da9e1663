package qon

import (
	"encoding/json"
	"testing"
)

// TestDecodeStrictAcceptsMarshalJSON pins that the one-pass scan, not
// the encoding/json fallback, decodes what MarshalJSON emits — edgeless
// graphs ("edges": null) and indented documents included — and that it
// decodes the instance that was encoded.
func TestDecodeStrictAcceptsMarshalJSON(t *testing.T) {
	for n := 1; n <= 12; n++ {
		for seed := int64(0); seed < 3; seed++ {
			in := randomInstance(n, seed)
			data, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			indented, err := json.MarshalIndent(in, "", "\t")
			if err != nil {
				t.Fatal(err)
			}
			for _, doc := range [][]byte{data, indented} {
				got, ok := decodeStrict(doc)
				if !ok {
					t.Fatalf("n=%d seed %d: strict scan declined MarshalJSON output %.80s…", n, seed, doc)
				}
				if !sameInstance(got, in) {
					t.Fatalf("n=%d seed %d: strict scan decoded a different instance", n, seed)
				}
			}
		}
	}
}
