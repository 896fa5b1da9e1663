package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"approxqo/internal/cluster/replica"
	"approxqo/internal/engine"
)

// DefaultCacheSize is the result-cache capacity when Config.CacheSize
// is zero. Each entry is one engine report — a few KB — so the default
// is sized for memory headroom, not hit rate.
const DefaultCacheSize = 256

// Cache metric names. Hits and misses partition the cache lookups of
// accepted, well-formed requests when caching is enabled; neither is
// touched when the cache is disabled or bypassed (chaos injection).
// Canonical hits are the subset of hits the fingerprint keying earned:
// the stored entry was produced by a request whose raw bytes differed
// (a relabeling, reordered keys, different whitespace or timeout_ms),
// so a byte-identity cache would have missed. Body hits are the subset
// served by the byte-identity index, without decoding the body, and
// disjoint from canonical hits. Relabel hits are the subset served by
// the relabel index, decoded but without a canonical search; they are
// disjoint from body hits, and one whose body differs from the
// storing body's is a canonical hit too.
const (
	MetricCacheHits     = "server.cache.hits"
	MetricCacheMisses   = "server.cache.misses"
	MetricCanonicalHits = "server.cache.canonical_hits"
	MetricBodyHits      = "server.cache.body_hits"
	MetricRelabelHits   = "server.cache.relabel_hits"
	// MetricCacheMismatch counts hits whose stored report disagreed with
	// the requesting instance's size — a corrupt or poisoned entry that
	// key↔report binding should make impossible. The entry is evicted
	// and the request falls through to a real run; a nonzero counter is
	// an integrity alarm, not a performance signal.
	MetricCacheMismatch = "server.cache.mismatch"
)

// bodyKey is the byte identity of a request source: the hex SHA-256
// of the exact bytes the client sent (a whole /optimize body, or one
// batch job's raw JSON). The cache stores it with each entry for
// canonical-hit attribution, and /optimize bodies double as the key of
// the byte-identity index.
func bodyKey(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// bodySource is what the byte-identity index needs to serve a replay
// of the /optimize body that stored an entry without decoding it
// again: the model, fingerprint and canonical permutation that body
// resolved to. A byte-identical body resolves to the same instance, so
// its permutation is the stored one. The body's digest is the entry's
// rawKey.
type bodySource struct {
	model string
	fp    string
	perm  []int
}

// relabelSource is what the relabel index needs to serve any
// relabeling of an entry's instance with a discrete refinement: the
// qon.RelabelID digest, the fingerprint, and perm = π∘σ⁻¹, which maps
// the color-ordered instance into canonical space. A request with the
// same digest maps its labels into canonical space through perm∘σ of
// its own σ — bit for bit the permutation CanonicalID would return
// (DESIGN.md § Relabeling index).
type relabelSource struct {
	digest [sha256.Size]byte
	fp     string
	perm   []int
}

// cacheEntry is one stored result: the full engine report of a
// certified, full-rung run, with Best.Sequence remapped into the
// instance's canonical label space, plus the raw source key of the
// request that produced it (canonical-hit attribution). src is set
// only on entries a local /optimize request stored; the byte-identity
// index maps rawKey, that body's digest, back to this entry. rl is
// set, when the instance refines discretely, by the request that
// stored the entry or else by the first that hit it; the relabel
// index maps rl.digest back to this entry.
type cacheEntry struct {
	key    string
	rawKey string
	rep    *engine.Report
	src    *bodySource
	rl     *relabelSource
}

// resultCache is a mutex-guarded LRU over canonical instance keys with
// two more indexes: body digest → the entry its body stored
// (byte-identity index), and relabel digest → the entry whose
// instance has it (relabel index). Each entry carries at most one key
// of each, so neither index holds more than the LRU does, and both
// lose an entry's key whenever it leaves the cache or is replaced.
// Stored reports are treated as immutable by all readers (handlers
// only marshal them), so one *engine.Report may be served
// concurrently.
type resultCache struct {
	mu       sync.Mutex
	max      int
	ll       *list.List                          // front = most recently used
	items    map[string]*list.Element            // key → element holding *cacheEntry
	bodies   map[string]*list.Element            // body digest → element it stored (src set)
	relabels map[[sha256.Size]byte]*list.Element // relabel digest → element (rl set)
}

func newResultCache(max int) *resultCache {
	return &resultCache{
		max:      max,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		bodies:   make(map[string]*list.Element),
		relabels: make(map[[sha256.Size]byte]*list.Element),
	}
}

// get looks an entry up by key. A non-nil rl, the requester's relabel
// source, is attached to an entry that has none, so the next
// relabeling of the instance is served by the relabel index.
func (c *resultCache) get(key string, rl *relabelSource) (*engine.Report, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, "", false
	}
	c.ll.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	if rl != nil && ent.rl == nil {
		ent.rl = rl
		c.indexRelabel(el)
	}
	return ent.rep, ent.rawKey, true
}

// getRelabel looks an entry up by the relabel digest of its instance,
// refreshing it like get does.
func (c *resultCache) getRelabel(digest [sha256.Size]byte) (key, rawKey string, rep *engine.Report, rl *relabelSource, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.relabels[digest]
	if !ok {
		return "", "", nil, nil, false
	}
	c.ll.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	return ent.key, ent.rawKey, ent.rep, ent.rl, true
}

// getBody looks an entry up by the digest of the /optimize body that
// stored it, refreshing it like get does.
func (c *resultCache) getBody(digest string) (key string, rep *engine.Report, src *bodySource, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.bodies[digest]
	if !ok {
		return "", nil, nil, false
	}
	c.ll.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	return ent.key, ent.rep, ent.src, true
}

// put stores rep under key. A non-nil src marks a store by a local
// /optimize request whose body digest is rawKey and indexes the entry
// under it; nil (replica offers, batch jobs) stores it unindexed. A
// non-nil rl indexes the entry under its relabel digest; nil (replica
// offers, instances that do not refine discretely) leaves that to the
// first request that hits it. Replacing an entry drops both digests
// of the old one.
func (c *resultCache) put(key, rawKey string, rep *engine.Report, src *bodySource, rl *relabelSource) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.unindex(el)
		ent.rep, ent.rawKey, ent.src, ent.rl = rep, rawKey, src, rl
		c.index(el)
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, rawKey: rawKey, rep: rep, src: src, rl: rl})
	c.items[key] = el
	c.index(el)
	for c.ll.Len() > c.max {
		c.remove(c.ll.Back())
	}
}

// evict drops one entry by key, if present. The serving layer calls it
// when a hit fails the size-binding check — a stored report that
// disagrees with its own key is corrupt and must not be served again.
func (c *resultCache) evict(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.remove(el)
	}
}

// remove unlinks el from the LRU and all indexes. Callers hold c.mu.
func (c *resultCache) remove(el *list.Element) {
	c.unindex(el)
	c.ll.Remove(el)
	delete(c.items, el.Value.(*cacheEntry).key)
}

// index maps the digest of el's storing body and its relabel digest to
// el. Callers hold c.mu.
func (c *resultCache) index(el *list.Element) {
	if ent := el.Value.(*cacheEntry); ent.src != nil {
		c.bodies[ent.rawKey] = el
	}
	c.indexRelabel(el)
}

// indexRelabel maps el's relabel digest to el. Equal digests mean
// relabelings of one instance, hence one key, so a digest already
// held by another entry is only possible through a SHA-256 collision;
// that entry then loses it, keeping one digest per entry. Callers hold
// c.mu.
func (c *resultCache) indexRelabel(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	if ent.rl == nil {
		return
	}
	if old, ok := c.relabels[ent.rl.digest]; ok && old != el {
		old.Value.(*cacheEntry).rl = nil
	}
	c.relabels[ent.rl.digest] = el
}

// unindex drops el's digests from both indexes. Callers hold c.mu.
func (c *resultCache) unindex(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	if ent.src != nil {
		delete(c.bodies, ent.rawKey)
		ent.src = nil
	}
	if ent.rl != nil {
		delete(c.relabels, ent.rl.digest)
		ent.rl = nil
	}
}

// len reports the number of cached entries (tests).
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// bodyLen reports the number of indexed body digests (tests).
func (c *resultCache) bodyLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.bodies)
}

// relabelLen reports the number of indexed relabel digests (tests).
func (c *resultCache) relabelLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.relabels)
}

// keys snapshots every cached key, MRU first. The replication
// endpoints digest and enumerate over this snapshot; entries evicted
// between the snapshot and a later export are simply omitted.
func (c *resultCache) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).key)
	}
	return out
}

// export looks entries up by key for replication, skipping absentees.
// The returned reports are the cache's own immutable values — callers
// marshal them, never mutate. Lookups do not touch LRU order: a repair
// sweep reading the whole cache must not launder cold entries into
// looking hot.
func (c *resultCache) export(keys []string) []*replica.Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*replica.Entry, 0, len(keys))
	for _, k := range keys {
		if el, ok := c.items[k]; ok {
			ent := el.Value.(*cacheEntry)
			out = append(out, &replica.Entry{Key: ent.key, RawKey: ent.rawKey, Report: ent.rep})
		}
	}
	return out
}

// flightGroup deduplicates concurrent identical requests: the first
// caller for a key becomes the leader and runs the ensemble; followers
// block on the leader's completion and then re-check the result cache.
// If the leader's result was not cacheable (degraded rung, error, chaos)
// the next waiter is promoted to leader and runs itself, so dedup can
// delay a duplicate but never lose one. Hand-rolled because the module
// carries no external singleflight dependency.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// join registers interest in key. It returns the call to wait on and
// whether the caller is the leader (and therefore must call leave when
// its run — successful or not — is over).
func (g *flightGroup) join(key string) (*flightCall, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// leave ends the leader's flight, releasing every follower.
func (g *flightGroup) leave(key string, c *flightCall) {
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
}
