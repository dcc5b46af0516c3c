package shard

import (
	"sync"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/obs"
)

// captureSink records every QueryMetrics delivered to it.
type captureSink struct {
	mu   sync.Mutex
	recs []obs.QueryMetrics
}

func (c *captureSink) RecordQuery(m obs.QueryMetrics) {
	c.mu.Lock()
	c.recs = append(c.recs, m)
	c.mu.Unlock()
}

func (c *captureSink) byShard() (perShard []obs.QueryMetrics, agg []obs.QueryMetrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.recs {
		if m.Shard >= 0 {
			perShard = append(perShard, m)
		} else {
			agg = append(agg, m)
		}
	}
	return perShard, agg
}

// take returns the records delivered since the last call, split into
// per-shard and aggregate ones.
func (c *captureSink) take() (perShard []obs.QueryMetrics, agg []obs.QueryMetrics) {
	perShard, agg = c.byShard()
	c.mu.Lock()
	c.recs = nil
	c.mu.Unlock()
	return perShard, agg
}

// TestMetricsSink checks that every sharded top-k delivers one record per
// shard plus one aggregate record whose counters are the per-shard sums.
func TestMetricsSink(t *testing.T) {
	rows, stats, bounds := loadDataset(t, dataset.Restaurants(0.001))
	const shards = 4
	eng, err := New(spatialkeyword.Config{}, Options{Shards: shards, Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	fill(t, eng, rows)

	sink := &captureSink{}
	eng.SetMetricsSink(sink)

	kw := stats.WordsByFreq()[:1]
	p := rows[0].Point
	for _, tc := range []struct {
		name, op string
		k        int
		run      func(k int) (results int, qs *spatialkeyword.QueryStats, err error)
	}{
		{"TopKWithStats", "topk", 5, func(k int) (int, *spatialkeyword.QueryStats, error) {
			res, qs, err := eng.TopKWithStats(k, p, kw...)
			return len(res), &qs, err
		}},
		{"TopKSerial", "topk", 5, func(k int) (int, *spatialkeyword.QueryStats, error) {
			res, err := eng.TopKSerial(k, p, kw...)
			return len(res), nil, err
		}},
		{"TopKRanked", "ranked", 3, func(k int) (int, *spatialkeyword.QueryStats, error) {
			res, err := eng.TopKRanked(k, p, kw...)
			return len(res), nil, err
		}},
		{"TopKArea", "area", 3, func(k int) (int, *spatialkeyword.QueryStats, error) {
			res, err := eng.TopKArea(k, p, p, kw...)
			return len(res), nil, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results, qs, err := tc.run(tc.k)
			if err != nil {
				t.Fatal(err)
			}
			perShard, agg := sink.take()
			if len(perShard) != shards {
				t.Fatalf("per-shard records = %d, want %d", len(perShard), shards)
			}
			if len(agg) != 1 {
				t.Fatalf("aggregate records = %d, want 1", len(agg))
			}
			seen := map[int]bool{}
			var nodes int
			var random uint64
			for _, m := range perShard {
				if m.Op != tc.op {
					t.Fatalf("per-shard op = %q, want %q", m.Op, tc.op)
				}
				if seen[m.Shard] {
					t.Fatalf("duplicate record for shard %d", m.Shard)
				}
				seen[m.Shard] = true
				nodes += m.NodesLoaded
				random += m.BlocksRandom
			}
			a := agg[0]
			if a.Op != tc.op || a.K != tc.k || a.Keywords != len(kw) || a.Results != results {
				t.Fatalf("aggregate record = %+v", a)
			}
			if a.NodesLoaded == 0 || a.NodesLoaded != nodes || a.BlocksRandom != random {
				t.Fatalf("aggregate nodes %d / random blocks %d, per-shard sums %d / %d",
					a.NodesLoaded, a.BlocksRandom, nodes, random)
			}
			if qs != nil && (a.NodesLoaded != qs.NodesLoaded || a.BlocksRandom != qs.BlocksRandom) {
				t.Fatalf("aggregate nodes %d / random blocks %d, returned stats %d / %d",
					a.NodesLoaded, a.BlocksRandom, qs.NodesLoaded, qs.BlocksRandom)
			}
			if a.Latency <= 0 {
				t.Fatal("aggregate latency not set")
			}
		})
	}
}
