package cluster

import (
	"fmt"
	"sort"

	"rrmpcm/internal/snapshot"
)

// Ring is a consistent-hash ring mapping job keys (config hashes) to
// worker IDs. Each worker contributes vnodes virtual points so load
// spreads evenly even with a handful of workers, and adding or removing
// one worker only remaps the keys that worker owned — every other
// submission keeps routing to the same place, which is what keeps the
// idempotency story local: one worker's registry dedups all live
// duplicates of a key.
//
// The ring is a value-semantics helper, not a synchronized structure;
// the coordinator guards it with its own mutex.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	ids    map[string]struct{}
}

type ringPoint struct {
	hash uint64
	id   string
}

// NewRing returns an empty ring with the given virtual-node count per
// worker (<= 0 means 64).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, ids: map[string]struct{}{}}
}

// hashPoint hashes a ring-point or key label. FNV-1a matches the rest
// of the repo's integrity hashing, but its avalanche is too weak for
// the short, near-identical vnode labels ("w2#0", "w2#1", ...) — the
// points cluster and the ring unbalances — so the output goes through
// a splitmix64 finalizer. The ring only needs speed and spread, not
// collision resistance (keys are already SHA-256 hex).
func hashPoint(label string) uint64 {
	h := snapshot.Checksum([]byte(label))
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Add inserts a worker's virtual points. Re-adding is a no-op.
func (r *Ring) Add(id string) {
	if _, ok := r.ids[id]; ok {
		return
	}
	r.ids[id] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: hashPoint(fmt.Sprintf("%s#%d", id, i)), id: id})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id
	})
}

// Remove deletes a worker's virtual points. Removing an absent worker
// is a no-op.
func (r *Ring) Remove(id string) {
	if _, ok := r.ids[id]; !ok {
		return
	}
	delete(r.ids, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports whether id is on the ring.
func (r *Ring) Has(id string) bool {
	_, ok := r.ids[id]
	return ok
}

// Len reports the number of workers on the ring.
func (r *Ring) Len() int { return len(r.ids) }

// Owner returns the worker owning key: the first virtual point at or
// clockwise after the key's hash.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.at(key)].id, true
}

// Sequence returns every worker in ring order starting at key's owner,
// each exactly once — the retry order when the owner is lost.
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.ids))
	seen := make(map[string]struct{}, len(r.ids))
	for i, start := 0, r.at(key); i < len(r.points) && len(seen) < len(r.ids); i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.id]; !dup {
			seen[p.id] = struct{}{}
			out = append(out, p.id)
		}
	}
	return out
}

// at returns the index of key's owning virtual point.
func (r *Ring) at(key string) int {
	h := hashPoint(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
