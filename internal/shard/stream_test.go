package shard

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/obs"
)

// firstK takes a stream's top k the way every backend and SKQL do, through
// spatialkeyword.FirstK, and fails the test if the stream is not best first.
func firstK[R spatialkeyword.Result | spatialkeyword.RankedResult](t *testing.T, it stream[R], err error, k int, asc bool, at func(*R) (float64, *uint64)) []R {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var last *float64
	out, err := spatialkeyword.FirstK([]R{}, it, k, func(r R) bool {
		key, _ := at(&r)
		if last != nil && before(asc, key, *last) {
			t.Fatalf("stream went backwards: key %v after %v", key, *last)
		}
		last = &key
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// streamLayouts builds the engines the stream tests run on: one and three
// shards, grid and hash. Each shard packs its rows at its first read, unless
// perAdd flushes after every add, which builds each tree by Insert.
func streamLayouts(t *testing.T, cfg spatialkeyword.Config, bounds geo.Rect, rows []spatialkeyword.Object, perAdd bool) map[string]*ShardedEngine {
	t.Helper()
	out := map[string]*ShardedEngine{}
	for name, opts := range map[string]Options{
		"grid1": {Shards: 1, Bounds: bounds}, "grid3": {Shards: 3, Bounds: bounds},
		"hash1": {Shards: 1}, "hash3": {Shards: 3},
	} {
		s, err := New(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if perAdd {
			fill(t, flushEach{s}, rows)
		} else {
			fill(t, s, rows)
		}
		out[name] = s
	}
	return out
}

// TestStreamIsTheMerge: on one and three shards, grid and hash, the distance
// and ranked streams consumed to k by a caller give exactly what TopK and
// TopKRanked give —
// IDs included, on a seed dataset with deletions, with k beyond the
// corpus, and with k cutting through exact ties spread across the shards
// (the rows of TestMergeBeyondCorpusAndOnTies).
func TestStreamIsTheMerge(t *testing.T) {
	cfg := spatialkeyword.Config{SignatureBytes: 16}
	rows, stats, bounds := loadDataset(t, dataset.Restaurants(0.001))
	points, kwSets := queryPoints(rows, 6, 42), keywordSets(stats, 6, 2, 99)

	tieBounds := geo.NewRect(geo.NewPoint(0, 0), geo.NewPoint(1000, 1000))
	var ties []spatialkeyword.Object
	corners := [][2]float64{{-30, -40}, {30, -40}, {-30, 40}, {30, 40}}
	for i := 0; i < 12; i++ {
		c := corners[i%4]
		ties = append(ties, spatialkeyword.Object{Point: []float64{500 + c[0], 500 + c[1]}, Text: "harbor fish"})
	}
	for i := 0; i < 8; i++ {
		c := corners[i%4]
		ties = append(ties, spatialkeyword.Object{Point: []float64{500 + 5*c[0], 500 + 5*c[1] + float64(i)}, Text: "harbor fish"})
	}

	check := func(t *testing.T, s *ShardedEngine, k int, p []float64, kws []string) {
		t.Helper()
		want, err := s.TopK(k, p, kws...)
		if err != nil {
			t.Fatal(err)
		}
		it, err := s.Search(p, kws...)
		if got := firstK[spatialkeyword.Result](t, it, err, k, true, distanceKey); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d %v: Search / TopK differ:\n%+v\n%+v", k, kws, got, want)
		}

		wantR, err := s.TopKRanked(k, p, kws...)
		if err != nil {
			t.Fatal(err)
		}
		rit, err := s.SearchRanked(p, kws...)
		if got := firstK[spatialkeyword.RankedResult](t, rit, err, k, false, scoreKey); !reflect.DeepEqual(got, wantR) {
			t.Fatalf("k=%d %v: SearchRanked / TopKRanked differ:\n%+v\n%+v", k, kws, got, wantR)
		}
	}

	for name, s := range streamLayouts(t, cfg, bounds, rows, false) {
		t.Run(name+"/dataset", func(t *testing.T) {
			for id := uint64(0); id < uint64(len(rows)); id += 7 {
				if err := s.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			for qi, p := range points {
				for _, k := range []int{1, 5, len(rows) + 10} {
					check(t, s, k, p, kwSets[qi][:1])
					check(t, s, k, p, kwSets[qi])
				}
			}
		})
	}
	for name, s := range streamLayouts(t, cfg, tieBounds, ties, false) {
		t.Run(name+"/ties", func(t *testing.T) {
			for _, k := range []int{1, 5, 12, 13, len(ties) + 10} {
				check(t, s, k, []float64{500, 500}, []string{"harbor", "fish"})
			}
			got, err := s.TopK(5, []float64{500, 500}, "harbor", "fish")
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range got {
				if r.Object.ID != uint64(i) || r.Dist != 50 {
					t.Fatalf("result %d = id %d at %v, want id %d at 50", i, r.Object.ID, r.Dist, i)
				}
			}
		})
	}
}

// countingStream counts the Next calls a merge makes on one lane.
type countingStream[R any] struct {
	stream[R]
	n *int
}

func (c countingStream[R]) Next() (R, bool, error) { *c.n++; return c.stream.Next() }

// counted wraps a query's opener so that pulls[i] counts the pulls on the
// i-th lane opened — lanes open in shard order.
func counted[R any](q topkQuery[R], pulls []int) topkQuery[R] {
	open, i := q.open, 0
	q.open = func(e *spatialkeyword.Engine) (stream[R], error) {
		it, err := open(e)
		if err != nil {
			return nil, err
		}
		i++
		return countingStream[R]{it, &pulls[i-1]}, nil
	}
	return q
}

// TestSerialPullsArePinned: TopK and TopKRanked — what /search and /ranked
// serve — pull, lane by lane, no more results than the coordinated scheduler
// the stream replaced did, and in all exactly the results they return: a
// lane is settled before it is pulled (Settle), and pulled only while its
// next result's exact key is the best left, so each row a lane reads is
// delivered. Each is topK over its query, run here with a counting opener.
// The coordinated scheduler's numbers were recorded at commit ae80bff, with
// the same counting opener handed to that commit's merge(coordinated: true),
// on Restaurants(0.001), k = 5, the first keyword of each set for the distance
// query and both for the ranked one. Shards then indexed every add as it came,
// so the layouts here flush after every add: the pulls depend on the trees'
// shape through the bounds each lane reports. Once an object's ranked bound
// was capped by its row's largest term frequency, the ranked pulls of hash3
// queries 0, 4 and 5 were recorded again the same way, with that commit's
// ranked scorer weighing an object entry's matched keywords by the same cap.
// Once each matched keyword was weighed by what its row can hold of it — 1/2
// when the row's repeated-term mask proves it occurs at most once, the cap's
// weight otherwise — the ranked pulls of hash3 queries 1, 4 and 5 were
// recorded again the same way, with that commit's ranked scorer weighing
// object entries by the same per-row summaries.
func TestSerialPullsArePinned(t *testing.T) {
	pinned := map[string][][2][]int{ // layout → query → {distance, ranked} pulls per lane
		"grid1": {{{5}, {5}}, {{5}, {5}}, {{5}, {5}}, {{5}, {5}}, {{5}, {5}}, {{5}, {5}}},
		"grid3": {
			{{4, 1, 1}, {5, 1, 1}}, {{1, 1, 5}, {1, 1, 5}}, {{5, 1, 1}, {5, 1, 1}},
			{{1, 1, 5}, {1, 1, 5}}, {{1, 5, 1}, {1, 5, 1}}, {{5, 1, 1}, {5, 1, 1}},
		},
		"hash1": {{{5}, {5}}, {{5}, {5}}, {{5}, {5}}, {{5}, {5}}, {{5}, {5}}, {{5}, {5}}},
		"hash3": {
			{{4, 1, 2}, {3, 1, 2}}, {{1, 2, 2}, {2, 3, 1}}, {{2, 1, 2}, {2, 3, 1}},
			{{1, 4, 1}, {2, 3, 1}}, {{2, 1, 2}, {4, 1, 1}}, {{1, 1, 3}, {2, 1, 2}},
		},
	}
	rows, stats, bounds := loadDataset(t, dataset.Restaurants(0.001))
	points, kwSets := queryPoints(rows, 6, 42), keywordSets(stats, 6, 2, 99)
	for name, s := range streamLayouts(t, spatialkeyword.Config{SignatureBytes: 16}, bounds, rows, true) {
		for qi, p := range points {
			dist, ranked := make([]int, s.NumShards()), make([]int, s.NumShards())
			dr, _, err := topK(s, counted(s.nearQuery("topk", 5, p, kwSets[qi][:1]), dist), 5)
			if err != nil {
				t.Fatal(err)
			}
			rr, _, err := topK(s, counted(s.rankedQuery("ranked", 5, p, kwSets[qi]), ranked), 5)
			if err != nil {
				t.Fatal(err)
			}
			want := pinned[name][qi]
			for i := range dist {
				if dist[i] > want[0][i] || ranked[i] > want[1][i] {
					t.Errorf("%s query %d: pulls per lane %v (distance) %v (ranked), the coordinated scheduler made %v %v",
						name, qi, dist, ranked, want[0], want[1])
					break
				}
			}
			if sum(dist) != len(dr) || sum(ranked) != len(rr) {
				t.Errorf("%s query %d: %d and %d pulls for %d and %d results", name, qi, sum(dist), sum(ranked), len(dr), len(rr))
			}
		}
	}
}

// sum adds up pulls per lane.
func sum(pulls []int) int {
	n := 0
	for _, p := range pulls {
		n += p
	}
	return n
}

// TestAbandonedStreamReleasesShards: a stream given up after one result and
// closed holds no shard any longer — a writer gets through — and delivers one
// record per shard and exactly one aggregate record, counting the one result.
func TestAbandonedStreamReleasesShards(t *testing.T) {
	rows, stats, bounds := loadDataset(t, dataset.Restaurants(0.0005))
	word := stats.WordsByFreq()[0]
	for name, s := range streamLayouts(t, spatialkeyword.Config{SignatureBytes: 16}, bounds, rows, false) {
		var mu sync.Mutex
		var records []obs.QueryMetrics
		s.SetMetricsSink(obs.SinkFunc(func(m obs.QueryMetrics) {
			mu.Lock()
			records = append(records, m)
			mu.Unlock()
		}))
		opens := map[string]func() (interface{ Close() }, func() (bool, error), error){
			"Search": func() (interface{ Close() }, func() (bool, error), error) {
				it, err := s.Search(rows[0].Point)
				return it, func() (bool, error) { _, ok, err := it.Next(); return ok, err }, err
			},
			"SearchArea": func() (interface{ Close() }, func() (bool, error), error) {
				it, err := s.SearchArea(rows[0].Point, rows[0].Point)
				return it, func() (bool, error) { _, ok, err := it.Next(); return ok, err }, err
			},
			"SearchRanked": func() (interface{ Close() }, func() (bool, error), error) {
				it, err := s.SearchRanked(rows[0].Point, word)
				return it, func() (bool, error) { _, ok, err := it.Next(); return ok, err }, err
			},
		}
		for kind, open := range opens {
			records = nil
			it, next, err := open()
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := next(); err != nil || !ok {
				t.Fatalf("%s %s: first Next = %v, %v", name, kind, ok, err)
			}
			added := make(chan error, 1)
			go func() {
				_, err := s.Add(rows[0].Point, fmt.Sprintf("added beside an open %s", kind))
				added <- err
			}()
			select {
			case err := <-added:
				t.Fatalf("%s %s: an add got past an open stream's shard lock (%v)", name, kind, err)
			case <-time.After(20 * time.Millisecond):
			}
			it.Close()
			it.Close() // harmless
			select {
			case err := <-added:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s %s: Close left a shard locked", name, kind)
			}
			var aggregate, perShard int
			for _, m := range records {
				if m.Shard < 0 {
					aggregate++
					if m.Op != "stream" || m.Results != 1 || m.K != 0 {
						t.Errorf("%s %s: aggregate record %+v", name, kind, m)
					}
				} else {
					perShard++
				}
			}
			if aggregate != 1 || perShard != s.NumShards() {
				t.Errorf("%s %s: %d aggregate and %d per-shard records, want 1 and %d", name, kind, aggregate, perShard, s.NumShards())
			}
		}
	}
}
