package qon

import (
	"encoding/json"
	"fmt"

	"approxqo/internal/graph"
	"approxqo/internal/num"
)

type instanceJSON struct {
	Q *graph.Graph `json:"query_graph"`
	S [][]num.Num  `json:"selectivities"`
	T []num.Num    `json:"sizes"`
	W [][]num.Num  `json:"access_costs"`
}

// MarshalJSON encodes the instance with num values as strings.
func (in *Instance) MarshalJSON() ([]byte, error) {
	return json.Marshal(instanceJSON{Q: in.Q, S: in.S, T: in.T, W: in.W})
}

// UnmarshalJSON decodes and validates an instance. The spelling
// MarshalJSON emits is scanned in one pass (decodeStrict); any other
// spelling takes the encoding/json path, which defines the result for
// every input the scan declines.
func (in *Instance) UnmarshalJSON(data []byte) error {
	decoded, ok := decodeStrict(data)
	if !ok {
		var ij instanceJSON
		if err := json.Unmarshal(data, &ij); err != nil {
			return err
		}
		decoded = &Instance{Q: ij.Q, S: ij.S, T: ij.T, W: ij.W}
		if decoded.Q == nil {
			return fmt.Errorf("qon: missing query graph")
		}
	}
	if err := decoded.Validate(); err != nil {
		return err
	}
	*in = *decoded
	return nil
}
