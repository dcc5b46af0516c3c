// Package nodecache provides the pinned decoded-node block cache behind the
// zero-allocation read hot path. An R-Tree/IR²-Tree node is decoded from its
// disk blocks once, into a packed layout (its image and signature columns),
// and the cache keeps that decoded node keyed by its first BlockID so warm
// queries reuse it instead of re-decoding per visit.
//
// The cache is deliberately dumb about what it stores (a type parameter) and
// strict about how it behaves:
//
//   - deterministic: eviction is CLOCK (second chance) with a fixed hand, no
//     clocks, no randomness — two identical query traces leave two identical
//     caches, which keeps the modeled-disk-time benchmarks reproducible;
//   - no device I/O: the cache never touches storage. Callers read blocks
//     first, then consult or fill the cache, so no mutex here can ever stall
//     on a device (the lockio invariant now covers this package);
//   - explicitly invalidated: the mutation path calls Invalidate for every
//     node it rewrites or frees. The cache is an optimization layered over
//     the charge-on-hit protocol in internal/rtree: a hit pays the same
//     modeled I/O as an uncached read through the device's ChargeRun, which
//     moves no bytes and succeeds only if none of the node's blocks has been
//     written since its image was read; otherwise the hit re-reads the
//     blocks and compares before trusting the cached image — so even a
//     missed invalidation cannot serve stale data, it only costs a re-read
//     and a decode.
package nodecache

import (
	"sync"

	"spatialkeyword/internal/storage"
)

// DefaultCapacity is the node capacity used when a caller passes a
// non-positive capacity to New. A pinned R-Tree node is its trimmed image
// plus its signature columns, one bit per entry for every payload bit: at
// the paper's 4 KB blocks and 102 entries, about 19 KB for a full node with
// 64-byte signatures and 47 KB with Hotels' 189-byte ones (a served point
// leaf of 170 entries stores no signature but has its columns: about 16
// and 40 KB). So a full cache holds some 16–48 MB — the whole index, for
// the evaluation datasets at bench scale, which is usually far fewer nodes
// than this.
const DefaultCapacity = 1024

// Stats counts cache outcomes since the cache was created. Snapshot-read
// under the cache mutex; feed them to obs gauges, not tight loops.
type Stats struct {
	Hits          uint64 // Get found the node
	Misses        uint64 // Get did not find the node
	Evictions     uint64 // a resident node was displaced by CLOCK
	Invalidations uint64 // a resident node was dropped by the mutation path
}

type slot[V any] struct {
	id   storage.BlockID
	val  V
	ref  bool // CLOCK reference bit: touched since the hand last passed
	used bool
}

// Cache is a fixed-capacity CLOCK cache of decoded nodes keyed by their
// first BlockID. Safe for concurrent use; all operations are O(1) amortized
// and never perform I/O.
type Cache[V any] struct {
	mu    sync.Mutex
	slots []slot[V]
	index map[storage.BlockID]int
	hand  int
	stats Stats
}

// New returns an empty cache holding at most capacity nodes.
// Non-positive capacities fall back to DefaultCapacity.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache[V]{
		slots: make([]slot[V], capacity),
		index: make(map[storage.BlockID]int, capacity),
	}
}

// Get returns the cached value for id, if resident.
func (c *Cache[V]) Get(id storage.BlockID) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[id]; ok {
		c.slots[i].ref = true
		c.stats.Hits++
		return c.slots[i].val, true
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

// Put inserts or replaces the value for id, evicting the CLOCK victim when
// the cache is full.
func (c *Cache[V]) Put(id storage.BlockID, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[id]; ok {
		c.slots[i].val = val
		c.slots[i].ref = true
		return
	}
	i := c.victimLocked()
	c.slots[i] = slot[V]{id: id, val: val, ref: true, used: true}
	c.index[id] = i
}

// victimLocked advances the CLOCK hand to the next free or evictable slot.
func (c *Cache[V]) victimLocked() int {
	for {
		i := c.hand
		c.hand = (c.hand + 1) % len(c.slots)
		s := &c.slots[i]
		if !s.used {
			return i
		}
		if s.ref {
			s.ref = false
			continue
		}
		delete(c.index, s.id)
		c.stats.Evictions++
		var zero V
		s.val = zero
		s.used = false
		return i
	}
}

// Invalidate drops id from the cache if resident. The mutation path calls
// this for every node it rewrites or frees, before the new image hits disk.
func (c *Cache[V]) Invalidate(id storage.BlockID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[id]; ok {
		delete(c.index, id)
		var zero V
		c.slots[i] = slot[V]{val: zero}
		c.stats.Invalidations++
	}
}

// Stats returns a snapshot of the outcome counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
