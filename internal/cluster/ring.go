package cluster

import (
	"slices"
	"sort"
	"strconv"

	"approxqo/internal/cluster/replica"
)

// DefaultVirtualNodes is how many points each worker contributes to the
// ring. 64 keeps the keyspace split within a few percent of even for
// small fleets while the one build stays cheap (O(workers · vnodes ·
// log)).
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring over worker names (base URLs). Keys —
// canonical instance fingerprints — map to an ordered preference list
// of distinct workers: the primary shard first, then the failover
// replicas in ring order. Because the hash ignores everything but the
// key and the membership, the same fingerprint routes to the same
// worker from every coordinator, which is what lets each worker's
// canonical cache and singleflight dedup relabeled duplicates
// fleet-wide.
//
// A Ring is immutable once built, so it is safe for concurrent use
// without locking: membership is the worker list the coordinator
// starts with, for the life of the process.
type Ring struct {
	points  []ringPoint // sorted by hash
	workers []string    // distinct members, sorted
}

type ringPoint struct {
	hash  uint64
	owner string
}

// NewRing builds the ring over workers, ignoring duplicates; vnodes ≤ 0
// means DefaultVirtualNodes.
func NewRing(workers []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	ws := slices.Clone(workers)
	slices.Sort(ws)
	r := &Ring{workers: slices.Compact(ws)}
	r.points = make([]ringPoint, 0, len(r.workers)*vnodes)
	for _, w := range r.workers {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{ringHash(w + "#" + strconv.Itoa(i)), w})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].owner < r.points[b].owner // deterministic on (vanishingly rare) collisions
	})
	return r
}

// ringHash is replica.KeyHash: the single keyspace definition shared
// with the workers' digest arithmetic, so the ownership ranges the
// coordinator hands a worker to digest select exactly the keys the
// ring would route there.
func ringHash(s string) uint64 { return replica.KeyHash(s) }

// Workers lists the members, sorted.
func (r *Ring) Workers() []string { return slices.Clone(r.workers) }

// Size reports the number of members.
func (r *Ring) Size() int { return len(r.workers) }

// OwnedRange is one vnode arc of the ring with its owner and the
// distinct successor workers holding the arc's replicas.
type OwnedRange struct {
	Range      replica.Range
	Owner      string
	Successors []string
}

// OwnedRanges enumerates the ring's vnode arcs: for each point, the arc
// (previous point, point] it owns, plus up to `successors` distinct
// follow-on workers — the replica set anti-entropy compares digests
// across. A single point (impossible in practice: every worker carries
// vnodes points) would own the full circle via the Lo==Hi convention.
func (r *Ring) OwnedRanges(successors int) []OwnedRange {
	n := len(r.points)
	if n == 0 {
		return nil
	}
	out := make([]OwnedRange, 0, n)
	for i := 0; i < n; i++ {
		lo := r.points[(i-1+n)%n].hash
		p := r.points[i]
		if lo == p.hash && n > 1 {
			continue // zero-length arc from a (vanishingly rare) hash collision
		}
		or := OwnedRange{Range: replica.Range{Lo: lo, Hi: p.hash}, Owner: p.owner}
		if successors > 0 {
			seen := map[string]bool{p.owner: true}
			for j := 1; j < n && len(or.Successors) < successors; j++ {
				q := r.points[(i+j)%n]
				if !seen[q.owner] {
					seen[q.owner] = true
					or.Successors = append(or.Successors, q.owner)
				}
			}
		}
		out = append(out, or)
	}
	return out
}

// Lookup returns up to n distinct workers for key, primary first, then
// successive replicas walking the ring clockwise. n ≤ 0 or n > members
// returns every member. An empty ring returns nil.
func (r *Ring) Lookup(key string, n int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.workers) {
		n = len(r.workers)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.owner] {
			seen[p.owner] = true
			out = append(out, p.owner)
		}
	}
	return out
}
