package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// ReadyState is the decoded /readyz of a worker or coordinator: the
// common readiness fields both shapes share, plus the raw document for
// callers that want the rest (engine health, per-worker states).
type ReadyState struct {
	Status   int             `json:"-"`
	Ready    bool            `json:"ready"`
	Draining bool            `json:"draining"`
	Raw      json.RawMessage `json:"-"`
}

// Readyz GETs the target's /readyz once — no retries: readiness is a
// point-in-time question, and soaks poll it themselves. A non-200 with
// a decodable body is still a successful ReadyState (a draining
// coordinator answers 503 with the same document).
func (c *Client) Readyz(ctx context.Context) (*ReadyState, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/readyz", nil)
	if err != nil {
		return nil, err
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("loadgen: reading /readyz body: %w", err)
	}
	st := &ReadyState{Status: resp.StatusCode, Raw: data}
	if err := json.Unmarshal(data, st); err != nil {
		return nil, fmt.Errorf("loadgen: undecodable /readyz body %q: %w", data, err)
	}
	return st, nil
}
