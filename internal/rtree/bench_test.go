package rtree

import (
	"math/rand"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

// Micro-benchmarks for the spatial substrate. The paper-level benchmarks
// (per figure/table) live in the repository root's bench_test.go.

func benchTree(b *testing.B, n int) (*Tree, []geo.Point) {
	b.Helper()
	tree, err := New(storage.NewDisk(4096), Config{Dim: 2})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.NewPoint(rng.Float64()*10000, rng.Float64()*10000)
		if err := tree.Insert(uint64(i), geo.PointRect(pts[i]), nil); err != nil {
			b.Fatal(err)
		}
	}
	return tree, pts
}

func BenchmarkInsert(b *testing.B) {
	tree, _ := benchTree(b, 1)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geo.NewPoint(rng.Float64()*10000, rng.Float64()*10000)
		if err := tree.Insert(uint64(i+10), geo.PointRect(p), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkLoad10k(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	entries := make([]BulkEntry, 10000)
	for i := range entries {
		p := geo.NewPoint(rng.Float64()*10000, rng.Float64()*10000)
		entries[i] = BulkEntry{Ref: uint64(i), Rect: geo.PointRect(p)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := New(storage.NewDisk(4096), Config{Dim: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := tree.BulkLoad(entries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNearestNeighbor10(b *testing.B) {
	tree, _ := benchTree(b, 20000)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := tree.NearestNeighbors(geo.NewPoint(rng.Float64()*10000, rng.Float64()*10000), nil)
		for j := 0; j < 10; j++ {
			if _, _, ok, err := it.Next(); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	}
}

func BenchmarkDelete(b *testing.B) {
	tree, pts := benchTree(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N && i < len(pts); i++ {
		ok, err := tree.Delete(uint64(i), geo.PointRect(pts[i]))
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}
