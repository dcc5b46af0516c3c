package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/sigfile"
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

// BenchmarkParsePacked times a cold node load's CPU: pinning a full node's
// image and building its signature columns, for the 64-byte signatures of
// the Restaurants workloads and the 189-byte ones of Hotels, half their bits
// set.
func BenchmarkParsePacked(b *testing.B) {
	for _, auxLen := range []int{64, 189} {
		b.Run(fmt.Sprintf("aux=%d", auxLen), func(b *testing.B) {
			tree, err := New(storage.NewDisk(4096), Config{Dim: 2, Scheme: orScheme{n: auxLen}, CacheNodes: -1})
			if err != nil {
				b.Fatal(err)
			}
			img := rawImage(rand.New(rand.NewSource(5)), 0, tree.MaxEntries(), 2, auxLen, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.parsePacked(1, img, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWarmExpand times warm node expansions: a 10-nearest conjunctive
// query, Figure 8's traversal, over a bulk-packed tree of 20,000 objects with
// 64-byte signatures of five words each (interior signatures superimpose
// their children's), every node already pinned. ns/node is the cost of one
// expansion: the node-cache hit and its charge, the signature test of all
// its entries, and the decode, scoring and enqueue of the survivors.
func BenchmarkWarmExpand(b *testing.B) {
	cfg := sigfile.Config{LengthBytes: 64, BitsPerWord: sigfile.DefaultBitsPerWord}
	rng := rand.New(rand.NewSource(6))
	vocab := make([]string, 2000)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%d", i)
	}
	entries := make([]BulkEntry, 20000)
	for i := range entries {
		words := make([]string, 5)
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		p := geo.NewPoint(rng.Float64()*10000, rng.Float64()*10000)
		entries[i] = BulkEntry{Ref: uint64(i), Rect: geo.PointRect(p), Aux: cfg.DocSignature(words)}
	}
	tree, err := New(storage.NewDisk(4096), Config{Dim: 2, Scheme: orScheme{n: cfg.LengthBytes}})
	if err != nil {
		b.Fatal(err)
	}
	if err := tree.BulkLoad(entries); err != nil {
		b.Fatal(err)
	}
	type query struct {
		p   geo.Point
		sig sigfile.Sig64
	}
	queries := make([]query, 64)
	for i := range queries {
		w := vocab[rng.Intn(100)] // frequent enough that most queries reach k
		queries[i] = query{geo.NewPoint(rng.Float64()*10000, rng.Float64()*10000), sigfile.MakeSig64(cfg.WordSignature(w))}
	}
	nodes := 0
	run := func(q *query) {
		it := tree.NearestNeighbors(q.p, func(int) *sigfile.Sig64 { return &q.sig })
		for j := 0; j < 10; j++ {
			if _, _, ok, err := it.Next(); err != nil {
				b.Fatal(err)
			} else if !ok {
				break
			}
		}
		nodes += it.NodesLoaded()
		it.Close()
	}
	for i := range queries {
		run(&queries[i]) // pin every node the queries expand
	}
	nodes = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(&queries[i%len(queries)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(nodes, 1)), "ns/node")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
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
