package shard

import (
	"fmt"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
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

func BenchmarkTopKRanked(b *testing.B) {
	benchMerge(b, func(s *ShardedEngine, p []float64, kws []string) error {
		_, err := s.TopKRanked(10, p, kws...)
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
