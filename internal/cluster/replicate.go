package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"approxqo/internal/cluster/replica"
	"approxqo/internal/server"
)

// Replication orchestration: the coordinator names each forwarded
// job's replica set (the ring successors of its key) in the
// X-Replicate-To header — the owning worker fans certified results out
// asynchronously — and owns the recovery path that keeps the copy count
// honest across partitions and worker restarts: anti-entropy
// (StartRepair/RepairOnce). Replica pairs exchange per-vnode key
// digests; divergent arcs trade key lists and the missing entries are
// read-repaired. Every repair transfer withdraws one token from the
// global retry budget, so repair traffic is priced exactly like retries
// and can never starve serving. The ring never changes, so a worker
// restarted at its address owns the arcs it owned before and is
// refilled from its replicas.

// replicaPeers names the workers (beyond the serving one) that should
// hold key's certified result: the first Replicas distinct ring
// successors. Nil when replication is disabled or the fleet is too
// small to hold a second copy.
func (c *Coordinator) replicaPeers(key, serving string) []string {
	if c.cfg.Replicas <= 0 {
		return nil
	}
	owners := c.ring.Lookup(key, c.cfg.Replicas+1)
	peers := make([]string, 0, c.cfg.Replicas)
	for _, w := range owners {
		if w != serving && len(peers) < c.cfg.Replicas {
			peers = append(peers, w)
		}
	}
	return peers
}

// StartRepair launches the background anti-entropy loop; it stops when
// ctx is cancelled. Disabled replication or a non-positive
// RepairInterval makes this a no-op.
func (c *Coordinator) StartRepair(ctx context.Context) {
	if c.cfg.Replicas <= 0 || c.cfg.RepairInterval <= 0 {
		return
	}
	go func() {
		t := time.NewTicker(c.cfg.RepairInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.RepairOnce(ctx)
			}
		}
	}()
}

// RepairOnce runs one anti-entropy pass: per vnode arc, the owner's and
// successors' digests are compared; divergent arcs exchange key lists
// and the union minus each member's holdings is read-repaired onto it.
// Each transfer (one export+offer pair) withdraws a retry-budget token
// first — when the bucket is dry the pass stops and the divergence
// waits for the next round. It reports divergent arcs found and
// entries repaired.
func (c *Coordinator) RepairOnce(ctx context.Context) (diverged, repaired int) {
	if c.cfg.Replicas <= 0 {
		return 0, 0
	}
	m := c.cfg.Metrics
	m.Counter(MetricRepairRounds).Inc()
	owned := c.ring.OwnedRanges(c.cfg.Replicas)
	if len(owned) == 0 {
		return 0, 0
	}

	// One digest round trip per worker, covering every arc it
	// participates in (as owner or successor), in arc order.
	arcsOf := make(map[string][]int) // worker → indices into owned
	for i, or := range owned {
		if len(or.Successors) == 0 {
			continue // single-member fleet: nothing to compare
		}
		arcsOf[or.Owner] = append(arcsOf[or.Owner], i)
		for _, s := range or.Successors {
			arcsOf[s] = append(arcsOf[s], i)
		}
	}
	digests := make(map[string]map[int]replica.RangeDigest) // worker → arc index → digest
	for w, idxs := range arcsOf {
		ranges := make([]replica.Range, len(idxs))
		for k, i := range idxs {
			ranges[k] = owned[i].Range
		}
		ds, err := c.fetchDigests(ctx, w, ranges)
		if err != nil || len(ds) != len(idxs) {
			continue // unreachable worker: its arcs are skipped this round
		}
		byArc := make(map[int]replica.RangeDigest, len(idxs))
		for k, i := range idxs {
			byArc[i] = ds[k]
		}
		digests[w] = byArc
	}

	for i, or := range owned {
		if len(or.Successors) == 0 {
			continue
		}
		members := append([]string{or.Owner}, or.Successors...)
		var ref *replica.RangeDigest
		mismatch, reachable := false, 0
		for _, w := range members {
			d, ok := digests[w]
			if !ok {
				continue // unreachable this round
			}
			reachable++
			dd := d[i]
			if ref == nil {
				ref = &dd
			} else if dd != *ref {
				mismatch = true
			}
		}
		if !mismatch || reachable < 2 {
			continue
		}
		diverged++
		m.Counter(MetricRepairRanges).Inc()
		n, ok := c.repairArc(ctx, or, members, digests)
		repaired += n
		if !ok && n == 0 {
			return diverged, repaired // budget dry: stop the whole pass
		}
	}
	return diverged, repaired
}

// repairArc read-repairs one divergent arc: fetch each reachable
// member's keys, then ship every member the keys it is missing from
// the first member that holds them. The bool result is false when the
// retry budget refused a transfer (the pass should wind down).
func (c *Coordinator) repairArc(ctx context.Context, or OwnedRange, members []string, digests map[string]map[int]replica.RangeDigest) (int, bool) {
	m := c.cfg.Metrics
	keysOf := make(map[string]map[string]bool, len(members))
	var union []string
	seen := make(map[string]bool)
	for _, w := range members {
		if _, ok := digests[w]; !ok {
			continue // unreachable for digests; don't guess its contents
		}
		keys, err := c.fetchKeys(ctx, w, or.Range)
		if err != nil {
			continue
		}
		set := make(map[string]bool, len(keys))
		for _, k := range keys {
			set[k] = true
			if !seen[k] {
				seen[k] = true
				union = append(union, k)
			}
		}
		keysOf[w] = set
	}
	repaired := 0
	for _, dst := range members {
		have, ok := keysOf[dst]
		if !ok {
			continue
		}
		// Group dst's missing keys by the first member that holds them,
		// one export+offer per source.
		bySrc := make(map[string][]string)
		for _, k := range union {
			if have[k] {
				continue
			}
			for _, src := range members {
				if src != dst && keysOf[src] != nil && keysOf[src][k] {
					bySrc[src] = append(bySrc[src], k)
					break
				}
			}
		}
		for src, keys := range bySrc {
			if !c.budget.withdraw() {
				m.Counter(MetricRepairDenied).Inc()
				return repaired, false
			}
			m.Counter(MetricRepairXfers).Inc()
			entries, err := c.fetchExport(ctx, src, keys)
			if err != nil || len(entries) == 0 {
				continue
			}
			n, err := c.sendOffer(ctx, dst, entries)
			if err != nil {
				continue
			}
			repaired += n
			m.Counter(MetricRepairEntries).Add(int64(n))
		}
	}
	return repaired, true
}

// postJSON is one coordinator→worker replication round trip: POST the
// encoded body to worker+path, require a 200, decode into out.
func (c *Coordinator) postJSON(ctx context.Context, worker, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("cluster: encoding %s body: %w", path, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(replica.AuthHeader, c.cfg.ClusterSecret)
	resp, err := c.client.Do(hreq)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, server.DefaultMaxBodyBytes))
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("cluster: reading %s response from %s: %w", path, worker, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s from %s: status %d", path, worker, resp.StatusCode)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("cluster: decoding %s response from %s: %w", path, worker, err)
	}
	return nil
}

// fetchKeys lists worker's cache keys on one arc, up to one offer's
// worth (replica.DefaultMaxOfferEntries).
func (c *Coordinator) fetchKeys(ctx context.Context, worker string, arc replica.Range) ([]string, error) {
	var out replica.KeysResponse
	req := &replica.KeysRequest{Range: arc}
	if err := c.postJSON(ctx, worker, "/cache/keys", req, &out); err != nil {
		return nil, err
	}
	return out.Keys, nil
}

// fetchDigests fetches worker's per-arc digests, one per range in
// order.
func (c *Coordinator) fetchDigests(ctx context.Context, worker string, ranges []replica.Range) ([]replica.RangeDigest, error) {
	var out replica.DigestResponse
	if err := c.postJSON(ctx, worker, "/cache/digest", &replica.DigestRequest{Ranges: ranges}, &out); err != nil {
		return nil, err
	}
	return out.Digests, nil
}

// fetchExport pulls full entries by key, re-validating each at the
// trust boundary — a divergent replica's export is no more trusted
// than a worker 200 — and dropping the invalid ones.
func (c *Coordinator) fetchExport(ctx context.Context, worker string, keys []string) ([]*replica.Entry, error) {
	var out replica.ExportResponse
	if err := c.postJSON(ctx, worker, "/cache/export", &replica.ExportRequest{Keys: keys}, &out); err != nil {
		return nil, err
	}
	valid := out.Entries[:0]
	for _, e := range out.Entries {
		if e.Validate() == nil {
			valid = append(valid, e)
		}
	}
	return valid, nil
}

// sendOffer offers entries to worker, chunked under the offer cap,
// returning how many the receiver accepted.
func (c *Coordinator) sendOffer(ctx context.Context, worker string, entries []*replica.Entry) (int, error) {
	accepted := 0
	for len(entries) > 0 {
		chunk := entries
		if len(chunk) > replica.DefaultMaxOfferEntries {
			chunk = chunk[:replica.DefaultMaxOfferEntries]
		}
		entries = entries[len(chunk):]
		var out replica.OfferResponse
		if err := c.postJSON(ctx, worker, "/cache/offer", &replica.OfferRequest{From: "coordinator", Entries: chunk}, &out); err != nil {
			return accepted, err
		}
		accepted += out.Accepted
	}
	return accepted, nil
}

// replicateToHeader renders the replica set for a forwarded job, or ""
// when there are no peers to name.
func replicateToHeader(peers []string) string { return strings.Join(peers, ",") }
