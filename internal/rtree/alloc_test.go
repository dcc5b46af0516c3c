//go:build !race

// Allocation-regression gates for the packed read hot path. The race
// detector instruments allocations and breaks testing.AllocsPerRun's
// accounting, so these gates are skipped under -race (the behavior itself is
// covered race-enabled by the differential tests in packed_test.go).
package rtree

import (
	"math/rand"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

// TestLoadPackedHitAllocFree pins the core cache property: once a node is
// decoded and pinned, re-loading it — a charge of its device blocks, or the
// verify re-read a checksummed device insists on — allocates nothing, on the
// in-memory simulator and on the file device (bare and checksummed) that a
// served engine actually reads.
func TestLoadPackedHitAllocFree(t *testing.T) {
	devices := []struct {
		name string
		mk   func(t *testing.T) storage.Device
	}{
		{"Disk", func(*testing.T) storage.Device { return storage.NewDisk(4096) }},
		{"FileDisk", func(t *testing.T) storage.Device { return newFileDisk(t) }},
		{"Checksum(FileDisk)", func(t *testing.T) storage.Device { return storage.NewChecksumDisk(newFileDisk(t)) }},
	}
	for _, dev := range devices {
		t.Run(dev.name, func(t *testing.T) {
			tree, err := New(dev.mk(t), Config{MaxEntries: 3, Scheme: orScheme{n: 8}})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 60; i++ {
				p := geo.NewPoint(rng.Float64()*100, rng.Float64()*100)
				aux := make([]byte, 8)
				copy(aux, refMask(uint64(i)))
				if err := tree.Insert(uint64(i), geo.PointRect(p), aux, nil); err != nil {
					t.Fatal(err)
				}
			}
			root, err := tree.Root()
			if err != nil {
				t.Fatal(err)
			}
			id := root.ID()
			if _, err := tree.LoadPacked(id); err != nil { // prime the cache and the scratch pools
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := tree.LoadPacked(id); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("warm LoadPacked allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestWarmIterAllocBounded gates the full packed traversal: a warm
// nearest-neighbor scan over the whole tree must stay within a constant
// handful of allocations (the iterator itself and its bookkeeping),
// independent of how many nodes it expands.
func TestWarmIterAllocBounded(t *testing.T) {
	disk := storage.NewDisk(4096)
	tree, err := New(disk, Config{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		p := geo.NewPoint(rng.Float64()*100, rng.Float64()*100)
		if err := tree.Insert(uint64(i+1), geo.PointRect(p), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	q := geo.NewPoint(50, 50)
	scan := func() {
		it := tree.NearestNeighbors(q, nil)
		defer it.Close()
		for {
			_, _, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
		}
	}
	scan() // warm the node cache, scratch pool, and iterator pool
	allocs := testing.AllocsPerRun(50, scan)
	// The budget covers the Iter struct and pprof label plumbing — not the
	// per-node, per-entry decode storm the packed path eliminates. With ~40
	// nodes of 8 entries each, decoding every visited node would allocate
	// thousands.
	const budget = 16
	if allocs > budget {
		t.Fatalf("warm full scan allocates %.1f objects/op, want <= %d", allocs, budget)
	}
}
