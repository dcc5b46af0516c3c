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

// TestMetricsSink: the shard merge is the one producer of query records. On
// one shard as on four, every top-k and every stream delivers one record per
// shard and then one aggregate record: each after its shard's lock is
// released, the aggregate's counters the per-shard sums and equal to the
// Stats its caller got, and a stream's records once, when it ends — at
// exhaustion or at Close, whichever is first — never twice.
func TestMetricsSink(t *testing.T) {
	rows, stats, bounds := loadDataset(t, dataset.Restaurants(0.001))
	kw := stats.WordsByFreq()[:1]
	p := rows[0].Point
	type layout struct {
		eng  *ShardedEngine
		sink *captureSink
	}
	var layouts []layout
	for _, shards := range []int{1, 4} {
		eng, err := New(spatialkeyword.Config{}, Options{Shards: shards, Bounds: bounds})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		fill(t, eng, rows)
		sink := &captureSink{}
		eng.SetMetricsSink(obs.SinkFunc(func(m obs.QueryMetrics) {
			held := eng.shards
			if m.Shard >= 0 {
				held = held[m.Shard : m.Shard+1]
			}
			for _, sh := range held {
				if !sh.mu.TryLock() {
					t.Errorf("%d shards: %q record for shard %d delivered under shard %d's lock", shards, m.Op, m.Shard, sh.idx)
					continue
				}
				sh.mu.Unlock()
			}
			sink.RecordQuery(m)
		}))
		layouts = append(layouts, layout{eng, sink})
	}

	for _, tc := range []struct {
		name, op string
		k        int
		run      func(t *testing.T, s *ShardedEngine, sink *captureSink, k int) (results int, qs *spatialkeyword.QueryStats, err error)
	}{
		{"TopKWithStats", "topk", 5, func(_ *testing.T, s *ShardedEngine, _ *captureSink, k int) (int, *spatialkeyword.QueryStats, error) {
			res, qs, err := s.TopKWithStats(k, p, kw...)
			return len(res), &qs, err
		}},
		{"TopKSerial", "topk", 5, func(_ *testing.T, s *ShardedEngine, _ *captureSink, k int) (int, *spatialkeyword.QueryStats, error) {
			res, err := s.TopKSerial(k, p, kw...)
			return len(res), nil, err
		}},
		{"TopKRanked", "ranked", 3, func(_ *testing.T, s *ShardedEngine, _ *captureSink, k int) (int, *spatialkeyword.QueryStats, error) {
			res, err := s.TopKRanked(k, p, kw...)
			return len(res), nil, err
		}},
		{"SearchDrained", "stream", 0, func(t *testing.T, s *ShardedEngine, sink *captureSink, _ int) (int, *spatialkeyword.QueryStats, error) {
			it, err := s.Search(p, kw...)
			if err != nil {
				return 0, nil, err
			}
			n := 0
			for {
				_, ok, err := it.Next()
				if err != nil {
					return 0, nil, err
				}
				if !ok {
					break
				}
				n++
			}
			if perShard, agg := sink.byShard(); len(agg) != 1 || len(perShard) == 0 {
				t.Fatalf("%d aggregate and %d per-shard records once the stream ended", len(agg), len(perShard))
			}
			before := len(sink.recs)
			it.Close()
			if len(sink.recs) != before {
				t.Fatal("Close after the stream ended recorded again")
			}
			qs := it.Stats()
			return n, &qs, nil
		}},
		{"SearchAbandoned", "stream", 0, func(t *testing.T, s *ShardedEngine, sink *captureSink, _ int) (int, *spatialkeyword.QueryStats, error) {
			it, err := s.Search(p, kw...)
			return abandon[spatialkeyword.Result](t, sink, it, err)
		}},
		{"SearchRankedAbandoned", "stream", 0, func(t *testing.T, s *ShardedEngine, sink *captureSink, _ int) (int, *spatialkeyword.QueryStats, error) {
			it, err := s.SearchRanked(p, kw...)
			return abandon[spatialkeyword.RankedResult](t, sink, it, err)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, l := range layouts {
				shards := l.eng.NumShards()
				results, qs, err := tc.run(t, l.eng, l.sink, tc.k)
				if err != nil {
					t.Fatal(err)
				}
				perShard, agg := l.sink.take()
				if len(perShard) != shards {
					t.Fatalf("%d shards: per-shard records = %d", shards, len(perShard))
				}
				if len(agg) != 1 {
					t.Fatalf("%d shards: aggregate records = %d, want 1", shards, len(agg))
				}
				seen := map[int]bool{}
				var sum obs.Work
				for _, m := range perShard {
					if m.Op != tc.op {
						t.Fatalf("%d shards: per-shard op = %q, want %q", shards, m.Op, tc.op)
					}
					if seen[m.Shard] {
						t.Fatalf("%d shards: duplicate record for shard %d", shards, m.Shard)
					}
					seen[m.Shard] = true
					sum.Add(m.Work)
				}
				a := agg[0]
				if a.Op != tc.op || a.K != tc.k || a.Keywords != len(kw) || a.Results != results || a.Err || a.Degraded {
					t.Fatalf("%d shards: aggregate record = %+v", shards, a)
				}
				if a.NodesLoaded == 0 || a.Work != sum {
					t.Fatalf("%d shards: aggregate work %+v, per-shard sums %+v", shards, a.Work, sum)
				}
				if qs != nil && a.Work != qs.Work {
					t.Fatalf("%d shards: aggregate work %+v, the caller's stats %+v", shards, a.Work, qs.Work)
				}
				if a.Latency <= 0 {
					t.Fatalf("%d shards: aggregate latency not set", shards)
				}
			}
		})
	}
}

// abandon takes one result from a stream, checks that nothing has been
// recorded before its Close, and closes it.
func abandon[R any](t *testing.T, sink *captureSink, it stream[R], err error) (int, *spatialkeyword.QueryStats, error) {
	t.Helper()
	if err != nil {
		return 0, nil, err
	}
	if _, ok, err := it.Next(); err != nil || !ok {
		t.Fatalf("first result: ok=%v err=%v", ok, err)
	}
	if len(sink.recs) != 0 {
		t.Fatalf("%d records before the stream was closed", len(sink.recs))
	}
	it.Close()
	qs := it.Stats()
	return 1, &qs, nil
}
