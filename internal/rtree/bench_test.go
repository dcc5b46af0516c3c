package rtree

import (
	"fmt"
	"math/bits"
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
	tree, err := New(storage.NewDisk(4096), Config{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.NewPoint(rng.Float64()*10000, rng.Float64()*10000)
		if err := tree.Insert(uint64(i), geo.PointRect(pts[i]), nil, nil); err != nil {
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
		if err := tree.Insert(uint64(i+10), geo.PointRect(p), nil, nil); err != nil {
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
		tree, err := New(storage.NewDisk(4096), Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := tree.BulkLoad(entries, nil); err != nil {
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
			tree, err := New(storage.NewDisk(4096), Config{Scheme: orScheme{n: auxLen}, CacheNodes: -1})
			if err != nil {
				b.Fatal(err)
			}
			img := rawImage(rand.New(rand.NewSource(5)), 0, tree.MaxEntries(), auxLen, 2)
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

// BenchmarkWarmExpand times warm node expansions over a bulk-packed tree of
// 20,000 objects (interior signatures superimpose their children's), every
// node the queries expand already pinned. ns/node is the cost of one
// expansion: the node-cache hit and its charge, the signature tests of all
// its entries, and the scoring and enqueue of the survivors.
//
//   - distance: a 10-nearest conjunctive query, Figure 8's traversal, over
//     64-byte signatures of five words each.
//   - ranked: the first 10 pulls of a general ranked query over 189-byte
//     signatures (the Hotels length) of twelve words each, scored by
//     rankShape: three MatchMask calls per node, one per keyword.
func BenchmarkWarmExpand(b *testing.B) {
	b.Run("distance", func(b *testing.B) {
		tree, cfg, vocab, rng := warmTree(b, 64, 5)
		type query struct {
			p   geo.Point
			sig sigfile.Sig64
		}
		queries := make([]query, 64)
		for i := range queries {
			w := vocab[rng.Intn(100)] // frequent enough that most queries reach k
			queries[i] = query{geo.NewPoint(rng.Float64()*10000, rng.Float64()*10000), sigfile.MakeSig64(cfg.WordSignature(w))}
		}
		benchWarm(b, len(queries), func(i int) *Iter {
			q := &queries[i]
			return tree.NearestNeighbors(q.p, func(int) *sigfile.Sig64 { return &q.sig })
		})
	})
	b.Run("ranked", func(b *testing.B) {
		tree, cfg, vocab, rng := warmTree(b, 189, 12)
		scorers := make([]*rankShape, 64)
		for i := range scorers {
			s := &rankShape{nw: tree.MaskWords(), lo: make(geo.Point, 2), hi: make(geo.Point, 2)}
			for j := 0; j < 3; j++ {
				s.sigs = append(s.sigs, sigfile.MakeSig64(cfg.WordSignature(vocab[rng.Intn(300)])))
				s.idfs = append(s.idfs, 1+float64(j)/4)
			}
			s.masks = make([]uint64, len(s.sigs)*s.nw)
			s.p = geo.NewPoint(rng.Float64()*10000, rng.Float64()*10000)
			scorers[i] = s
		}
		benchWarm(b, len(scorers), func(i int) *Iter { return tree.Seek(scorers[i], nil) })
	})
}

// warmTree bulk-loads 20,000 objects with auxLen-byte signatures of words
// words each, drawn from a 2,000-word vocabulary, and returns the tree, the
// signature configuration, the vocabulary and the generator, for the
// queries to be drawn from.
func warmTree(b *testing.B, auxLen, words int) (*Tree, sigfile.Config, []string, *rand.Rand) {
	b.Helper()
	cfg := sigfile.Config{LengthBytes: auxLen, BitsPerWord: sigfile.DefaultBitsPerWord}
	rng := rand.New(rand.NewSource(6))
	vocab := make([]string, 2000)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%d", i)
	}
	entries := make([]BulkEntry, 20000)
	for i := range entries {
		doc := make([]string, words)
		for j := range doc {
			doc[j] = vocab[rng.Intn(len(vocab))]
		}
		p := geo.NewPoint(rng.Float64()*10000, rng.Float64()*10000)
		entries[i] = BulkEntry{Ref: uint64(i), Rect: geo.PointRect(p), Aux: cfg.DocSignature(doc)}
	}
	tree, err := New(storage.NewDisk(4096), Config{Scheme: orScheme{n: auxLen}})
	if err != nil {
		b.Fatal(err)
	}
	if err := tree.BulkLoad(entries, nil); err != nil {
		b.Fatal(err)
	}
	return tree, cfg, vocab, rng
}

// benchWarm pulls the first 10 results of each of the n queries seek
// starts, once to pin every node they expand, then b.N times round robin,
// and reports ns/node and nodes/op.
func benchWarm(b *testing.B, n int, seek func(q int) *Iter) {
	nodes := 0
	run := func(q int) {
		it := seek(q)
		for j := 0; j < 10; j++ {
			if _, _, ok, err := it.Next(); err != nil {
				b.Fatal(err)
			} else if !ok {
				break
			}
		}
		nodes += it.TraversalStats().NodesLoaded
		it.Close()
	}
	for q := 0; q < n; q++ {
		run(q)
	}
	nodes = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i % n)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(nodes, 1)), "ns/node")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// rankShape is the general ranked query's node scorer without its row
// summaries: one MatchMask per keyword signature, the entries no keyword
// matched dropped, and each survivor scored -(Σ idfᵢ over the keywords
// whose mask has it) / (1 + MinDist).
type rankShape struct {
	p      geo.Point
	sigs   []sigfile.Sig64
	idfs   []float64
	masks  []uint64 // keyword i's at masks[i*nw:]
	nw     int
	lo, hi geo.Point
}

func (s *rankShape) ScoreNode(pn *PackedNode, mask []uint64, scores []float64) {
	for i := range s.sigs {
		pn.MatchMask(&s.sigs[i], s.masks[i*s.nw:])
	}
	for w := range mask {
		var matched uint64
		for i := range s.sigs {
			matched |= s.masks[i*s.nw+w]
		}
		mask[w] &= matched
	}
	for w, m := range mask {
		for ; m != 0; m &= m - 1 {
			b := uint(bits.TrailingZeros64(m))
			e := w*64 + int(b)
			var ub float64
			for i := range s.sigs {
				if s.masks[i*s.nw+w]>>b&1 != 0 {
					ub += s.idfs[i]
				}
			}
			scores[e] = -ub / (1 + pn.EntryRectInto(e, s.lo, s.hi).MinDist(s.p))
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
