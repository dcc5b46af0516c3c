package nodecache

import (
	"testing"

	"spatialkeyword/internal/storage"
)

// Len returns the number of resident nodes.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Cap returns the capacity.
func (c *Cache[V]) Cap() int { return len(c.slots) }

func TestGetPutInvalidate(t *testing.T) {
	c := New[int](4)
	if _, ok := c.Get(1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(1, 10)
	c.Put(2, 20)
	if v, ok := c.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = %d,%v want 10,true", v, ok)
	}
	c.Put(1, 11) // replace
	if v, _ := c.Get(1); v != 11 {
		t.Fatalf("after replace Get(1) = %d want 11", v)
	}
	c.Invalidate(1)
	if _, ok := c.Get(1); ok {
		t.Fatal("invalidated entry still resident")
	}
	c.Invalidate(99) // absent: no-op
	s := c.Stats()
	if s.Hits != 2 || s.Invalidations != 1 {
		t.Fatalf("stats %+v: want 2 hits, 1 invalidation", s)
	}
	if c.Len() != 1 || c.Cap() != 4 {
		t.Fatalf("Len=%d Cap=%d, want 1,4", c.Len(), c.Cap())
	}
	if def := New[string](0); def.Cap() != DefaultCapacity {
		t.Fatalf("default Cap = %d want %d", def.Cap(), DefaultCapacity)
	}
}

func TestClockEviction(t *testing.T) {
	c := New[int](2)
	c.Put(1, 10)
	c.Put(2, 20)
	c.Get(1) // re-reference 1 so 2 is the better victim... both have ref set by Put
	c.Put(3, 30)
	if c.Len() != 2 {
		t.Fatalf("Len = %d want 2", c.Len())
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d want 1", c.Stats().Evictions)
	}
	// Fill far past capacity; the cache must stay bounded and keep working.
	for i := storage.BlockID(10); i < 100; i++ {
		c.Put(i, int(i))
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d want 2 after churn", c.Len())
	}
	if v, ok := c.Get(99); !ok || v != 99 {
		t.Fatalf("most recent entry missing: %d,%v", v, ok)
	}
}

// TestDeterministicEviction: the same operation sequence leaves the same
// resident set — no time, no randomness.
func TestDeterministicEviction(t *testing.T) {
	run := func() []storage.BlockID {
		c := New[int](8)
		for i := 0; i < 200; i++ {
			id := storage.BlockID(i%13 + 1)
			if _, ok := c.Get(id); !ok {
				c.Put(id, i)
			}
			if i%7 == 0 {
				c.Invalidate(storage.BlockID(i%5 + 1))
			}
		}
		var resident []storage.BlockID
		for id := storage.BlockID(1); id <= 13; id++ {
			if _, ok := c.Get(id); ok {
				resident = append(resident, id)
			}
		}
		return resident
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic resident set: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic resident set: %v vs %v", a, b)
		}
	}
}
