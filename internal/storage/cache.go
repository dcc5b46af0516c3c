package storage

import (
	"container/list"
	"sync"
)

// CachedDisk wraps a Device with a write-through LRU buffer pool. Reads that
// hit the pool perform no underlying I/O, so the wrapped device's counters
// reflect only the misses. The paper's experiments run without a buffer pool
// (every node access is a disk I/O); CachedDisk exists for the ablation that
// shows how a buffer pool narrows — but does not close — the gap between the
// baselines and the IR²-Tree.
//
// CachedDisk is safe for concurrent use.
type CachedDisk struct {
	under Device

	mu       sync.Mutex
	capacity int
	lru      *list.List                // front = most recently used
	items    map[BlockID]*list.Element // -> *cacheEntry
	hits     uint64
	misses   uint64
}

type cacheEntry struct {
	id   BlockID
	data []byte
}

// NewCachedDisk wraps under with an LRU pool holding up to capacity blocks.
// It panics if capacity is not positive.
func NewCachedDisk(under Device, capacity int) *CachedDisk {
	if capacity <= 0 {
		//skvet:ignore nopanic documented constructor invariant
		panic("storage: cache capacity must be positive")
	}
	return &CachedDisk{
		under:    under,
		capacity: capacity,
		lru:      list.New(),
		items:    make(map[BlockID]*list.Element),
	}
}

// HitRate returns the fraction of reads served from the pool, and the raw
// hit/miss counts.
func (c *CachedDisk) HitRate() (rate float64, hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.hits + c.misses
	if total == 0 {
		return 0, 0, 0
	}
	return float64(c.hits) / float64(total), c.hits, c.misses
}

// BlockSize returns the underlying block size.
func (c *CachedDisk) BlockSize() int { return c.under.BlockSize() }

// Alloc reserves one block on the underlying device.
func (c *CachedDisk) Alloc() BlockID { return c.under.Alloc() }

// AllocRun reserves n consecutive blocks on the underlying device.
func (c *CachedDisk) AllocRun(n int) BlockID { return c.under.AllocRun(n) }

// Free releases a block and evicts it from the pool.
func (c *CachedDisk) Free(id BlockID) {
	c.mu.Lock()
	if el, ok := c.items[id]; ok {
		c.lru.Remove(el)
		delete(c.items, id)
	}
	c.mu.Unlock()
	c.under.Free(id)
}

// Read returns one block, from the pool when possible.
func (c *CachedDisk) Read(id BlockID) ([]byte, error) { return readAlloc(c, id, 1) }

// ReadRun reads n consecutive blocks, from the pool where possible.
func (c *CachedDisk) ReadRun(id BlockID, n int) ([]byte, error) { return readAlloc(c, id, n) }

// ReadRunInto implements Device. Cached prefix blocks are served from the
// pool; the first miss falls through to one underlying read of the rest of
// the run, so the sequential-access accounting matches an uncached run read.
func (c *CachedDisk) ReadRunInto(id BlockID, n int, dst []byte) error {
	bs := c.BlockSize()
	if err := checkRun(n, bs, dst); err != nil {
		return err
	}
	i := 0
	c.mu.Lock()
	for ; i < n; i++ {
		el, ok := c.items[id+BlockID(i)]
		if !ok {
			break
		}
		c.lru.MoveToFront(el)
		c.hits++
		copy(dst[i*bs:(i+1)*bs], el.Value.(*cacheEntry).data)
	}
	c.misses += uint64(n - i)
	c.mu.Unlock()
	if i == n {
		return nil
	}
	rest := dst[i*bs : n*bs]
	if err := c.under.ReadRunInto(id+BlockID(i), n-i, rest); err != nil {
		return err
	}
	for j := i; j < n; j++ {
		blk := make([]byte, bs)
		copy(blk, rest[(j-i)*bs:])
		c.insert(id+BlockID(j), blk)
	}
	return nil
}

// Write stores a block write-through and refreshes the pool. If the
// underlying write fails, the block's pool entry is invalidated rather than
// kept: the device's state is unknown (a torn write may have landed), so a
// stale cached copy could mask the damage from later reads.
func (c *CachedDisk) Write(id BlockID, data []byte) error {
	if err := c.under.Write(id, data); err != nil {
		c.invalidate(id, 1)
		return err
	}
	blk := make([]byte, c.BlockSize())
	copy(blk, data)
	c.insert(id, blk)
	return nil
}

// WriteRun stores a run write-through and refreshes the pool. On underlying
// failure every block of the run is invalidated — a torn run may have
// persisted any prefix, so none of the old cached copies can be trusted.
func (c *CachedDisk) WriteRun(id BlockID, n int, data []byte) error {
	if err := c.under.WriteRun(id, n, data); err != nil {
		c.invalidate(id, n)
		return err
	}
	bs := c.BlockSize()
	for i := 0; i < n; i++ {
		blk := make([]byte, bs)
		lo := i * bs
		if lo < len(data) {
			hi := lo + bs
			if hi > len(data) {
				hi = len(data)
			}
			copy(blk, data[lo:hi])
		}
		c.insert(id+BlockID(i), blk)
	}
	return nil
}

// invalidate drops pool entries for n consecutive blocks starting at id.
func (c *CachedDisk) invalidate(id BlockID, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < n; i++ {
		if el, ok := c.items[id+BlockID(i)]; ok {
			c.lru.Remove(el)
			delete(c.items, id+BlockID(i))
		}
	}
}

// insert adds or refreshes a pool entry, evicting the least recently used
// entry when over capacity. data must not be retained by the caller.
func (c *CachedDisk) insert(id BlockID, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[id]; ok {
		el.Value.(*cacheEntry).data = data
		c.lru.MoveToFront(el)
		return
	}
	c.items[id] = c.lru.PushFront(&cacheEntry{id: id, data: data})
	for c.lru.Len() > c.capacity {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).id)
	}
}

// Stats returns the underlying device's counters (misses only).
func (c *CachedDisk) Stats() Stats { return c.under.Stats() }

// ResetStats zeroes the underlying counters and the hit/miss counts.
func (c *CachedDisk) ResetStats() {
	c.mu.Lock()
	c.hits, c.misses = 0, 0
	c.mu.Unlock()
	c.under.ResetStats()
}

// NumBlocks returns the underlying allocation count.
func (c *CachedDisk) NumBlocks() int { return c.under.NumBlocks() }

// SizeBytes returns the underlying footprint.
func (c *CachedDisk) SizeBytes() int64 { return c.under.SizeBytes() }
