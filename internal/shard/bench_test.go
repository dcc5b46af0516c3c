package shard

import (
	"fmt"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/obs"
)

// The shard merge's microbenchmarks (ROADMAP item 1(c)): one warm query per
// op over a few thousand restaurants rows, on one and four hash shards, and
// the open of a WAL directory of the same rows.

// benchSpec is the benchmarks' data: about 2,700 rows.
var benchSpec = dataset.Restaurants(0.006)

// benchMerge runs query on {1, 4} shards, cycling through fixed query points
// and keyword pairs.
func benchMerge(b *testing.B, query func(s *ShardedEngine, p []float64, kws []string) error) {
	rows, stats, _ := loadDataset(b, benchSpec)
	points, kwSets := queryPoints(rows, 32, 42), keywordSets(stats, 32, 2, 99)
	for _, shards := range []int{1, 4} {
		s, err := New(spatialkeyword.Config{SignatureBytes: 16}, Options{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		fill(b, s, rows)
		if err := s.Flush(); err != nil { // index the load outside the timed loop
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dshards", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := query(s, points[i%len(points)], kwSets[i%len(kwSets)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTopK(b *testing.B) {
	benchMerge(b, func(s *ShardedEngine, p []float64, kws []string) error {
		_, _, err := s.TopKWithStats(10, p, kws...)
		return err
	})
}

// BenchmarkTopKRanked is the ranked top-k through the merge: k = 10 on
// benchMerge's rows and keyword pairs, and the skql_sharded arm, the shape of
// benchmarks/perf's skql_sharded RANKED statements — Restaurants(0.05) with
// 64-byte signatures on 4 hash shards, one word from the top 2 % by document
// frequency and one from the next 18 %, at a row's point — reporting the
// blocks and nodes each query reads (TopKRanked's topK, with its stats).
func BenchmarkTopKRanked(b *testing.B) {
	benchMerge(b, func(s *ShardedEngine, p []float64, kws []string) error {
		_, err := s.TopKRanked(10, p, kws...)
		return err
	})
	rows, stats, _ := loadDataset(b, dataset.Restaurants(0.05))
	s, err := New(spatialkeyword.Config{SignatureBytes: 64}, Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	fill(b, s, rows)
	if err := s.Flush(); err != nil { // pack every shard, as a save does
		b.Fatal(err)
	}
	words := stats.WordsByFreq()
	frequent, mid := words[:len(words)/50], words[len(words)/50:len(words)/5]
	query := func(i int) spatialkeyword.QueryStats {
		kws := []string{frequent[i*7%len(frequent)], mid[i*13%len(mid)]}
		_, st, err := topK(s, s.rankedQuery("ranked", 10, rows[i*7919%len(rows)].Point, kws), 10)
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	b.Run("skql_sharded", func(b *testing.B) {
		for i := 0; i < 256; i++ { // warm the node caches
			query(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var nodes int
		var blocks uint64
		for i := 0; i < b.N; i++ {
			st := query(i)
			nodes += st.NodesLoaded
			blocks += st.BlocksRandom + st.BlocksSequential
		}
		b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
	})
}

// BenchmarkWithinArea is the range query through the merge: every row
// within ±400 of the query point holding the pair's first keyword.
func BenchmarkWithinArea(b *testing.B) {
	benchMerge(b, func(s *ShardedEngine, p []float64, kws []string) error {
		_, _, err := s.WithinArea([]float64{p[0] - 400, p[1] - 400}, []float64{p[0] + 400, p[1] + 400}, kws[0])
		return err
	})
}

// BenchmarkOpen reopens a saved WAL directory of the benchmark rows.
func BenchmarkOpen(b *testing.B) {
	rows, _, _ := loadDataset(b, benchSpec)
	for _, shards := range []int{1, 4} {
		dir := b.TempDir()
		s, err := NewDurable(spatialkeyword.Config{SignatureBytes: 16, WAL: true}, dir, Options{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		fill(b, s, rows)
		if err := s.Save(); err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dshards", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopKSinkOverhead measures a one-shard TopK with the metrics sink
// off and recording into a registry. The merge records once per shard and
// once per query, never per traversal step, so the two should stay within a
// few per cent of each other.
func BenchmarkTopKSinkOverhead(b *testing.B) {
	rows, stats, _ := loadDataset(b, benchSpec)
	points, kwSets := queryPoints(rows, 32, 42), keywordSets(stats, 32, 2, 99)
	s, err := New(spatialkeyword.Config{SignatureBytes: 16}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	fill(b, s, rows)
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		sink obs.Sink
	}{{"off", nil}, {"on", obs.NewQueryRecorder(obs.NewRegistry())}} {
		s.SetMetricsSink(mode.sink)
		b.Run("sink="+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.TopKWithStats(10, points[i%len(points)], kwSets[i%len(kwSets)]...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedLoad times a sharded engine's first load: every row of
// Restaurants(0.05) Added to a fresh NewDurable engine over 4 hash shards on
// file-backed storage.Disks, then Save — what skserve -shards 4 pays to be loaded and
// checkpointed. The Save hands each shard its queued adds as one batch, which
// packs the shard's tree. It sits beside the root package's
// BenchmarkDurableLoad and reports the load rate in objects/s.
func BenchmarkShardedLoad(b *testing.B) {
	rows, _, _ := loadDataset(b, dataset.Restaurants(0.05))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewDurable(spatialkeyword.Config{SignatureBytes: 64}, b.TempDir(), Options{Shards: 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range rows {
			if _, err := s.Add(o.Point, o.Text); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Save(); err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)*b.N)/b.Elapsed().Seconds(), "objects/s")
}
