package server

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"time"

	"approxqo/internal/cluster/replica"
)

// Cache replication endpoints and the write fan-out. The worker is the
// owning end of the cluster's replicated certified-result cache: when
// the coordinator's X-Replicate-To header names ring successors, every
// cache store fans the entry out to them asynchronously (off the
// request path, bounded concurrency, best effort — anti-entropy repairs
// what a partition drops). The /cache/* endpoints are the receiving
// half plus the introspection surface anti-entropy repair pulls from:
//
//	POST /cache/offer  — accept entries, re-validated at the trust
//	                     boundary exactly like coordinator-side worker
//	                     200s (certified, cost present, permutation-valid)
//	POST /cache/digest — per-range key digests (anti-entropy compare)
//	POST /cache/keys   — keys on one ring arc (repair diff)
//	POST /cache/export — full entries by key (repair source)
//
// The whole surface is authenticated: every /cache/* request must carry
// the cluster's shared secret (replica.AuthHeader), and the fan-out
// hint is honored only on requests that do. A worker with no configured
// secret keeps the surface closed.

// ReplicateToHeader carries the comma-separated worker base URLs that
// should receive a copy of any certified result this request stores —
// set by the cluster coordinator, which knows the ring and proves
// itself with the cluster secret; the header is ignored on requests
// that don't. The server itself never derives peers: an empty header
// means no fan-out.
const ReplicateToHeader = "X-Replicate-To"

// maxReplicaPeers caps how many peers one request may name: a hostile
// header must not turn one store into an amplification attack.
const maxReplicaPeers = 4

// Replication metric names. Offers partition into accepted/rejected at
// the trust boundary; sent/errors/dropped account the async fan-out
// (dropped = the bounded worker pool was saturated, the entry is left
// to anti-entropy).
const (
	MetricCacheOffers        = "server.cache.offers"         // counter: POST /cache/offer bodies decoded
	MetricCacheOfferAccepted = "server.cache.offer.accepted" // counter: entries stored
	MetricCacheOfferRejected = "server.cache.offer.rejected" // counter: entries refused validation
	MetricCacheExported      = "server.cache.exported"       // counter: entries served to /cache/export
	MetricReplicateSent      = "server.replicate.sent"       // counter: fan-out offers delivered
	MetricReplicateErrors    = "server.replicate.errors"     // counter: fan-out offers that failed
	MetricReplicateDropped   = "server.replicate.dropped"    // counter: fan-outs dropped, pool saturated
)

// replicateWorkers bounds concurrent fan-out goroutines; fan-out past
// it is dropped (and counted), never queued unboundedly.
const replicateWorkers = 4

// DefaultReplicaTimeout bounds one fan-out offer POST.
const DefaultReplicaTimeout = 2 * time.Second

// peerAuthed reports whether the request proved cluster membership: it
// carries the configured shared secret in replica.AuthHeader. With no
// secret configured nothing authenticates — the replication surface is
// closed, not open.
func (s *Server) peerAuthed(r *http.Request) bool {
	secret := s.cfg.ClusterSecret
	if secret == "" {
		return false
	}
	got := r.Header.Get(replica.AuthHeader)
	return subtle.ConstantTimeCompare([]byte(got), []byte(secret)) == 1
}

// parseReplicaTo splits the X-Replicate-To header into peer base URLs,
// dropping empties and capping the count.
func parseReplicaTo(hdr string) []string {
	if hdr == "" {
		return nil
	}
	var peers []string
	for _, p := range strings.Split(hdr, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
		if len(peers) == maxReplicaPeers {
			break
		}
	}
	return peers
}

// replicate fans one stored entry out to the named peers on a bounded
// worker pool. It never blocks the request path: when every pool slot
// is busy the fan-out is dropped and counted, and the copy waits for
// anti-entropy. The entry's report is the cache's immutable canonical
// copy, safe to marshal concurrently.
func (s *Server) replicate(peers []string, ent *replica.Entry) {
	if len(peers) == 0 || s.replicaSem == nil {
		return
	}
	select {
	case s.replicaSem <- struct{}{}:
	default:
		s.cfg.Metrics.Counter(MetricReplicateDropped).Inc()
		return
	}
	go func() {
		defer func() { <-s.replicaSem }()
		body, err := json.Marshal(&replica.OfferRequest{Entries: []*replica.Entry{ent}})
		if err != nil {
			s.cfg.Metrics.Counter(MetricReplicateErrors).Inc()
			return
		}
		for _, peer := range peers {
			if s.offerPeer(peer, body) {
				s.cfg.Metrics.Counter(MetricReplicateSent).Inc()
			} else {
				s.cfg.Metrics.Counter(MetricReplicateErrors).Inc()
			}
		}
	}()
}

// offerPeer POSTs one offer body to a peer's /cache/offer.
func (s *Server) offerPeer(peer string, body []byte) bool {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultReplicaTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/cache/offer", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(replica.AuthHeader, s.cfg.ClusterSecret)
	resp, err := s.replicaClient.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// cacheEndpointGate applies the shared preconditions of every /cache/*
// endpoint: POST only, caching enabled, authenticated peer, body within
// bounds. It returns the body and true, or writes the error and
// returns false.
func (s *Server) cacheEndpointGate(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		s.cfg.Metrics.Counter(MetricBadRequest).Inc()
		WriteErrorDoc(w, requestID(r), http.StatusMethodNotAllowed, "method_not_allowed",
			"use POST with a JSON request body", 0)
		return nil, false
	}
	if s.cache == nil {
		WriteErrorDoc(w, requestID(r), http.StatusServiceUnavailable, "cache_disabled",
			"certified-result cache is disabled on this worker", 0)
		return nil, false
	}
	if !s.peerAuthed(r) {
		// The replication surface writes into (and enumerates) the
		// certified-result cache; only cluster members may touch it.
		WriteErrorDoc(w, requestID(r), http.StatusForbidden, "unauthorized",
			"cache replication requires the cluster secret", 0)
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes))
	if err != nil {
		s.cfg.Metrics.Counter(MetricBadRequest).Inc()
		WriteErrorDoc(w, requestID(r), http.StatusRequestEntityTooLarge, "too_large",
			"request body exceeds the configured bound", 0)
		return nil, false
	}
	return body, true
}

// handleCacheOffer is POST /cache/offer: decode, re-validate each
// entry at the trust boundary, store the survivors. Per-entry
// rejection (not body-level) so one corrupted entry cannot void a
// repair chunk.
func (s *Server) handleCacheOffer(w http.ResponseWriter, r *http.Request) {
	body, ok := s.cacheEndpointGate(w, r)
	if !ok {
		return
	}
	off, err := replica.DecodeOffer(body, replica.DefaultMaxOfferEntries)
	if err != nil {
		s.cfg.Metrics.Counter(MetricBadRequest).Inc()
		WriteErrorDoc(w, requestID(r), http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	s.cfg.Metrics.Counter(MetricCacheOffers).Inc()
	var resp replica.OfferResponse
	for _, ent := range off.Entries {
		if ent.Validate() != nil {
			resp.Rejected++
			continue
		}
		s.cache.put(ent.Key, ent.RawKey, ent.Report, nil, nil)
		resp.Accepted++
	}
	s.cfg.Metrics.Counter(MetricCacheOfferAccepted).Add(int64(resp.Accepted))
	s.cfg.Metrics.Counter(MetricCacheOfferRejected).Add(int64(resp.Rejected))
	WriteJSON(w, http.StatusOK, &resp)
}

// handleCacheDigest is POST /cache/digest: per-range digests of the
// cache's current key set, one per requested range in order.
func (s *Server) handleCacheDigest(w http.ResponseWriter, r *http.Request) {
	body, ok := s.cacheEndpointGate(w, r)
	if !ok {
		return
	}
	var dreq replica.DigestRequest
	if err := json.Unmarshal(body, &dreq); err != nil {
		s.cfg.Metrics.Counter(MetricBadRequest).Inc()
		WriteErrorDoc(w, requestID(r), http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	if len(dreq.Ranges) == 0 || len(dreq.Ranges) > replica.MaxDigestRanges {
		s.cfg.Metrics.Counter(MetricBadRequest).Inc()
		WriteErrorDoc(w, requestID(r), http.StatusBadRequest, "bad_request",
			"digest request needs 1..4096 ranges", 0)
		return
	}
	WriteJSON(w, http.StatusOK, &replica.DigestResponse{
		Digests: replica.DigestRanges(s.cache.keys(), dreq.Ranges),
	})
}

// handleCacheKeys is POST /cache/keys: the cache keys falling on the
// requested ring arc, up to one offer's worth.
func (s *Server) handleCacheKeys(w http.ResponseWriter, r *http.Request) {
	body, ok := s.cacheEndpointGate(w, r)
	if !ok {
		return
	}
	var kreq replica.KeysRequest
	if err := json.Unmarshal(body, &kreq); err != nil {
		s.cfg.Metrics.Counter(MetricBadRequest).Inc()
		WriteErrorDoc(w, requestID(r), http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	var out replica.KeysResponse
	for _, k := range s.cache.keys() {
		if !kreq.Range.Contains(replica.KeyHash(k)) {
			continue
		}
		out.Keys = append(out.Keys, k)
		if len(out.Keys) == replica.DefaultMaxOfferEntries {
			break
		}
	}
	WriteJSON(w, http.StatusOK, &out)
}

// handleCacheExport is POST /cache/export: full entries by key for
// read repair. Absent keys are omitted, not errors.
func (s *Server) handleCacheExport(w http.ResponseWriter, r *http.Request) {
	body, ok := s.cacheEndpointGate(w, r)
	if !ok {
		return
	}
	var ereq replica.ExportRequest
	if err := json.Unmarshal(body, &ereq); err != nil {
		s.cfg.Metrics.Counter(MetricBadRequest).Inc()
		WriteErrorDoc(w, requestID(r), http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	if len(ereq.Keys) == 0 || len(ereq.Keys) > replica.DefaultMaxOfferEntries {
		s.cfg.Metrics.Counter(MetricBadRequest).Inc()
		WriteErrorDoc(w, requestID(r), http.StatusBadRequest, "bad_request",
			"export request needs 1..256 keys", 0)
		return
	}
	entries := s.cache.export(ereq.Keys)
	s.cfg.Metrics.Counter(MetricCacheExported).Add(int64(len(entries)))
	WriteJSON(w, http.StatusOK, &replica.ExportResponse{Entries: entries})
}
