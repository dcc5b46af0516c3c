package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

func TestAllSplitsPreserveEntriesAndFill(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	t.Run("quadratic", func(t *testing.T) {
		tree, err := New(storage.NewDisk(4096), Config{MaxEntries: 10})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			entries := make([]entry, 11)
			seen := make(map[uint64]bool)
			for i := range entries {
				x, y := rng.Float64()*100, rng.Float64()*100
				entries[i] = entry{
					ptr: uint64(trial*100 + i),
					rect: geo.NewRect(
						geo.NewPoint(x, y),
						geo.NewPoint(x+rng.Float64()*5, y+rng.Float64()*5),
					),
				}
				seen[entries[i].ptr] = true
			}
			a, b := tree.quadraticSplit(entries)
			if len(a)+len(b) != len(entries) {
				t.Fatalf("trial %d: lost entries %d+%d", trial, len(a), len(b))
			}
			if len(a) < tree.minE || len(b) < tree.minE {
				t.Fatalf("trial %d: under min fill %d/%d", trial, len(a), len(b))
			}
			for _, e := range append(append([]entry{}, a...), b...) {
				if !seen[e.ptr] {
					t.Fatalf("trial %d: unknown entry %d", trial, e.ptr)
				}
				delete(seen, e.ptr)
			}
			if len(seen) != 0 {
				t.Fatalf("trial %d: %d entries vanished", trial, len(seen))
			}
		}
	})
}

func TestAllSplitsIdenticalRects(t *testing.T) {
	// Degenerate input: every entry identical. The split must still be legal.
	tree, err := New(storage.NewDisk(4096), Config{MaxEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]entry, 7)
	for i := range entries {
		entries[i] = entry{ptr: uint64(i), rect: geo.PointRect(geo.NewPoint(5, 5))}
	}
	a, b := tree.quadraticSplit(entries)
	if len(a)+len(b) != 7 || len(a) < tree.minE || len(b) < tree.minE {
		t.Errorf("degenerate split %d/%d", len(a), len(b))
	}
}

func TestTreesCorrectUnderEverySplit(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	pts := make([]geo.Point, 400)
	for i := range pts {
		pts[i] = geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
	}
	q := geo.NewPoint(500, 500)
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := q.Dist(pts[order[a]]), q.Dist(pts[order[b]])
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	t.Run("quadratic", func(t *testing.T) {
		tree, err := New(storage.NewDisk(4096), Config{MaxEntries: 8})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if err := tree.Insert(uint64(i), geo.PointRect(p), nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		it := tree.NearestNeighbors(q, nil)
		for rank := 0; rank < 50; rank++ {
			ref, _, ok, err := it.Next()
			if err != nil || !ok {
				t.Fatalf("rank %d: %v %v", rank, ok, err)
			}
			if ref != uint64(order[rank]) {
				t.Fatalf("rank %d: %d, want %d", rank, ref, order[rank])
			}
		}
		// Deletions stay correct too.
		for i := 0; i < 100; i++ {
			ok, err := tree.Delete(uint64(i), geo.PointRect(pts[i]))
			if err != nil || !ok {
				t.Fatalf("delete %d: %v %v", i, ok, err)
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
