// Package replica defines the wire protocol and keyspace arithmetic of
// the cluster's certified-result cache replication: the entry shape a
// worker offers its ring successors, the per-range digests anti-entropy
// compares, and the hash/range primitives the coordinator's ring is
// built on.
//
// The package sits below both internal/server (which serves the
// /cache/* endpoints and fans offers out) and internal/cluster (which
// orchestrates repair), so the two sides of every exchange
// validate with the same code. Validation here is the trust boundary:
// a replica accepts an offered entry only if it re-proves the serving
// layer's contract — certified winner, valid cost, permutation-valid
// sequence in canonical label space, an exactness claim no other
// certified run refutes (engine.Report.CheckServed, the same check the
// coordinator applies to worker 200s), and a cache key under the
// current schema whose declared instance size matches the report's. A
// corrupted or malicious offer is rejected entry by entry, never
// crashing the receiver (FuzzCacheOfferJSON pins this). On top of per-entry validation, every replication exchange is
// authenticated: peers prove cluster membership with the shared secret
// in the AuthHeader header, so the /cache/* surface is never open to
// arbitrary clients.
package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"approxqo/internal/engine"
)

// AuthHeader carries the cluster's shared replication secret on every
// replication exchange: the /cache/* endpoints (offer, digest, keys,
// export) refuse requests without it, and a worker honors the
// coordinator's X-Replicate-To fan-out hint only on requests that
// carry it. The secret is configured out of band (qod -cluster-secret
// on every member); a fleet without one simply runs with replication
// off rather than with an open cache-write surface.
const AuthHeader = "X-Cluster-Key"

// DefaultReplicas is how many ring successors each certified cache
// entry is copied to (R). Two successors mean an entry survives any
// single worker loss plus one concurrent partition, at a write
// amplification the async fan-out absorbs off the request path; full
// quorum schemes buy nothing more for a cache whose entries are
// immutable and re-derivable.
const DefaultReplicas = 2

// KeyHash maps a cache key (see Key) or ring vnode name to its
// position on the 64-bit hash ring. fnv-1a of near-identical
// strings clusters, so a splitmix64 finalizer scatters the positions;
// the cluster ring and the digest arithmetic share this single
// definition so ownership ranges computed by the coordinator match the
// ranges workers digest.
func KeyHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Range is a half-open arc (Lo, Hi] of the hash ring, wrapping through
// zero when Hi ≤ Lo. Lo == Hi denotes the full circle (the
// single-boundary degenerate case), matching how a one-point ring owns
// everything.
type Range struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// Contains reports whether hash h falls on the arc.
func (r Range) Contains(h uint64) bool {
	if r.Lo == r.Hi {
		return true
	}
	if r.Lo < r.Hi {
		return h > r.Lo && h <= r.Hi
	}
	return h > r.Lo || h <= r.Hi
}

// KeySchema tags every cache key with the serving contract its entry
// was produced under. Bump it whenever that contract changes in a way
// that invalidates stored results: keys under an older tag never match
// a lookup and Validate refuses them from replicas. s2: a restricted
// (cross-product-free) optimum is no longer flagged exact, so entries
// from before it may carry a false exactness claim.
const KeySchema = "s2"

// Key renders the canonical cache key: schema tag, model, declared
// instance size, and the graph-invariant fingerprint, colon-separated.
// Encoding n in the key is what lets Validate bind a claimed key to its
// report — an offer whose report disagrees with the size its own key
// declares is rejected at the trust boundary instead of lying dormant
// until a cache hit trips over it.
func Key(model string, n int, fp string) string {
	return KeySchema + ":" + model + ":" + strconv.Itoa(n) + ":" + fp
}

// Entry is one replicated cache entry: the canonical cache key
// (schema:model:n:fingerprint, see Key), the raw source key of the
// producing request (canonical-hit attribution travels with the
// entry), and the full engine report in canonical label space.
type Entry struct {
	Key    string         `json:"key"`
	RawKey string         `json:"raw_key,omitempty"`
	Report *engine.Report `json:"report"`
}

// Validate re-proves the serving contract on one offered entry. Every
// acceptor (worker /cache/offer, coordinator export fetch) must call it
// before trusting the entry: replication moves certified results
// between caches, and an entry that fails any check would let a
// corrupted replica poison a healthy one. The report itself must pass
// engine.Report.CheckServed for the size its key declares.
func (e *Entry) Validate() error {
	if e == nil {
		return errors.New("null entry")
	}
	schema, rest, _ := strings.Cut(e.Key, ":")
	if schema != KeySchema {
		return fmt.Errorf("entry key %q is not under cache schema %s", e.Key, KeySchema)
	}
	model, rest, ok := strings.Cut(rest, ":")
	if !ok {
		return fmt.Errorf("entry key %q is not schema:model:n:fingerprint", e.Key)
	}
	nStr, fp, ok := strings.Cut(rest, ":")
	if !ok || fp == "" {
		return fmt.Errorf("entry key %q is not schema:model:n:fingerprint", e.Key)
	}
	if model != "qon" && model != "qoh" {
		return fmt.Errorf("entry key has unknown model %q", model)
	}
	keyN, err := strconv.Atoi(nStr)
	if err != nil || keyN < 1 || keyN > engine.MaxServedN {
		return fmt.Errorf("entry key declares implausible instance size %q", nStr)
	}
	if len(fp) > 128 {
		return fmt.Errorf("entry fingerprint is %d bytes, cap is 128", len(fp))
	}
	rep := e.Report
	if err := rep.CheckServed(keyN); err != nil {
		return err
	}
	if rep.Model != "" && rep.Model != model {
		return fmt.Errorf("entry key model %q disagrees with report model %q", model, rep.Model)
	}
	if rep.N != keyN {
		// The key↔report binding: a report stored under a key declaring a
		// different size could crash the serving layer's label remap on a
		// later hit, so the mismatch is refused here, at the boundary.
		return fmt.Errorf("entry key declares n=%d, report has n=%d", keyN, rep.N)
	}
	return nil
}

// OfferRequest is the body of POST /cache/offer: entries a peer (the
// owning worker's async fan-out, or the coordinator's repair
// transfers) wants this replica to hold.
type OfferRequest struct {
	// From names the offering peer (diagnostic only; acceptance never
	// depends on it).
	From    string   `json:"from,omitempty"`
	Entries []*Entry `json:"entries"`
}

// OfferResponse reports the per-entry outcome of an offer: entries that
// passed re-validation and were stored, and entries rejected at the
// trust boundary.
type OfferResponse struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

// DefaultMaxOfferEntries bounds one offer body; repair sends in chunks
// below it.
const DefaultMaxOfferEntries = 256

// DecodeOffer parses one offer body, applying the structural checks
// that precede per-entry validation: well-formed JSON, a non-empty
// entries array within maxEntries (≤ 0 means DefaultMaxOfferEntries),
// no null entries. Per-entry Validate is the caller's accept/reject
// loop — one bad entry must not void its neighbours.
func DecodeOffer(data []byte, maxEntries int) (*OfferRequest, error) {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxOfferEntries
	}
	var off OfferRequest
	if err := json.Unmarshal(data, &off); err != nil {
		return nil, fmt.Errorf("decoding cache offer: %w", err)
	}
	if len(off.Entries) == 0 {
		return nil, errors.New("cache offer carries no entries")
	}
	if len(off.Entries) > maxEntries {
		return nil, fmt.Errorf("cache offer carries %d entries, cap is %d", len(off.Entries), maxEntries)
	}
	for i, e := range off.Entries {
		if e == nil {
			return nil, fmt.Errorf("cache offer entry %d is null", i)
		}
	}
	return &off, nil
}

// DigestRequest is the body of POST /cache/digest: the ring ranges the
// caller wants fingerprint digests for (anti-entropy compares one
// vnode arc at a time).
type DigestRequest struct {
	Ranges []Range `json:"ranges"`
}

// RangeDigest summarizes one range of a cache: an order-independent
// XOR fold of the keys' hashes plus the key count. Equal digests and
// counts mean the two replicas hold the same key set on that arc (up
// to a vanishing collision probability); divergence triggers a key
// exchange and read repair.
type RangeDigest struct {
	Digest string `json:"digest"`
	Count  int    `json:"count"`
}

// DigestResponse answers a DigestRequest, one digest per requested
// range in order.
type DigestResponse struct {
	Digests []RangeDigest `json:"digests"`
}

// MaxDigestRanges bounds one digest request (a 64-vnode worker has 64
// arcs; 4096 leaves room for large fleets without unbounded work).
const MaxDigestRanges = 4096

// DigestRanges computes the per-range digests of a key set. The fold
// re-mixes each key's ring hash so the digest is not simply the XOR of
// ring positions the caller already knows.
//
// Cost is O(keys·log keys + ranges·log keys), not O(keys·ranges): the
// key hashes are sorted once and each range is answered by binary
// search over a prefix-XOR array, so a request carrying the maximum
// range count cannot force a full key scan per range.
func DigestRanges(keys []string, ranges []Range) []RangeDigest {
	hs := make([]uint64, len(keys))
	for i, k := range keys {
		hs[i] = KeyHash(k)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	// px[i] is the XOR fold of the first i (sorted) hashes, re-mixed;
	// the fold of any contiguous hash interval is then px[j]^px[i].
	px := make([]uint64, len(hs)+1)
	for i, h := range hs {
		px[i+1] = px[i] ^ mix64(h)
	}
	n := len(hs)
	// upperBound is the number of hashes ≤ x.
	upperBound := func(x uint64) int {
		return sort.Search(n, func(i int) bool { return hs[i] > x })
	}
	out := make([]RangeDigest, len(ranges))
	for i, r := range ranges {
		var acc uint64
		var count int
		switch {
		case r.Lo == r.Hi: // full circle
			acc, count = px[n], n
		case r.Lo < r.Hi: // contiguous arc (Lo, Hi]
			i1, i2 := upperBound(r.Lo), upperBound(r.Hi)
			acc, count = px[i2]^px[i1], i2-i1
		default: // wraps through zero: (Lo, max] ∪ [0, Hi]
			i1, i2 := upperBound(r.Lo), upperBound(r.Hi)
			acc, count = (px[n]^px[i1])^px[i2], (n-i1)+i2
		}
		out[i] = RangeDigest{Digest: strconv.FormatUint(acc, 16), Count: count}
	}
	return out
}

// KeysRequest is the body of POST /cache/keys: list the cache keys
// falling on one ring arc, up to one offer's worth
// (DefaultMaxOfferEntries). The zero Range is the full circle.
type KeysRequest struct {
	Range Range `json:"range"`
}

// KeysResponse answers a KeysRequest.
type KeysResponse struct {
	Keys []string `json:"keys"`
}

// ExportRequest is the body of POST /cache/export: fetch full entries
// by key (the pull half of read repair). Keys absent from
// the cache are silently omitted — eviction between the key exchange
// and the export is normal, not an error.
type ExportRequest struct {
	Keys []string `json:"keys"`
}

// ExportResponse answers an ExportRequest.
type ExportResponse struct {
	Entries []*Entry `json:"entries"`
}
