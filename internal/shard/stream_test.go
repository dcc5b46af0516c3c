package shard

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/obs"
)

// firstK consumes a stream the way a caller that wants a deterministic top k
// does (SKQL's TOP): k results, then every further one the bound still allows
// to tie with the k-th, ordered by key and smallest ID, cut to k.
func firstK[R any](t *testing.T, it stream[R], err error, k int, asc bool, at func(*R) (float64, *uint64)) []R {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []item[R]
	for {
		if len(out) >= k {
			if bound, ok := it.PeekBound(); !ok || before(asc, out[k-1].key, bound) {
				break
			}
		}
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		key, id := at(&r)
		if n := len(out); n > 0 && before(asc, key, out[n-1].key) {
			t.Fatalf("stream went backwards: key %v after %v", key, out[n-1].key)
		}
		out = append(out, item[R]{key: key, id: *id, val: r})
	}
	sort.SliceStable(out, func(i, j int) bool { return better(asc, &out[i], &out[j]) })
	if len(out) > k {
		out = out[:k]
	}
	vals := make([]R, len(out))
	for i := range out {
		vals[i] = out[i].val
	}
	return vals
}

// streamLayouts builds the engines the stream tests run on: one and three
// shards, grid and hash.
func streamLayouts(t *testing.T, cfg spatialkeyword.Config, bounds geo.Rect, rows []spatialkeyword.Object) map[string]*ShardedEngine {
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
		fill(t, s, rows)
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

	for name, s := range streamLayouts(t, cfg, bounds, rows) {
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
	for name, s := range streamLayouts(t, cfg, tieBounds, ties) {
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
// serve — pull, lane by lane, exactly as many results as the coordinated
// scheduler the stream replaced did: each is topK over its query, run here
// with a counting opener. The numbers were recorded at commit ae80bff, with
// the same counting opener handed to that commit's merge(coordinated: true),
// on Restaurants(0.001), k = 5, the first keyword of each set for the distance
// query and both for the ranked one.
func TestSerialPullsArePinned(t *testing.T) {
	pinned := map[string][][2][]int{ // layout → query → {distance, ranked} pulls per lane
		"grid1": {{{5}, {5}}, {{5}, {5}}, {{5}, {5}}, {{5}, {5}}, {{5}, {5}}, {{5}, {5}}},
		"grid3": {
			{{4, 1, 1}, {5, 1, 1}}, {{1, 1, 5}, {1, 1, 5}}, {{5, 1, 1}, {5, 1, 1}},
			{{1, 1, 5}, {1, 1, 5}}, {{1, 5, 1}, {1, 5, 1}}, {{5, 1, 1}, {5, 1, 1}},
		},
		"hash1": {{{5}, {5}}, {{5}, {5}}, {{5}, {5}}, {{5}, {5}}, {{5}, {5}}, {{5}, {5}}},
		"hash3": {
			{{4, 1, 2}, {3, 2, 2}}, {{1, 2, 2}, {2, 3, 2}}, {{2, 1, 2}, {2, 3, 1}},
			{{1, 4, 1}, {2, 3, 1}}, {{2, 1, 2}, {4, 1, 1}}, {{1, 1, 3}, {2, 1, 2}},
		},
	}
	rows, stats, bounds := loadDataset(t, dataset.Restaurants(0.001))
	points, kwSets := queryPoints(rows, 6, 42), keywordSets(stats, 6, 2, 99)
	for name, s := range streamLayouts(t, spatialkeyword.Config{SignatureBytes: 16}, bounds, rows) {
		for qi, p := range points {
			dist, ranked := make([]int, s.NumShards()), make([]int, s.NumShards())
			if _, _, err := topK(s, counted(s.nearQuery("topk", 5, p, kwSets[qi][:1]), dist)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := topK(s, counted(s.rankedQuery("ranked", 5, p, kwSets[qi]), ranked)); err != nil {
				t.Fatal(err)
			}
			if want := pinned[name][qi]; !reflect.DeepEqual(dist, want[0]) || !reflect.DeepEqual(ranked, want[1]) {
				t.Errorf("%s query %d: pulls per lane %v (distance) %v (ranked), the coordinated scheduler made %v %v",
					name, qi, dist, ranked, want[0], want[1])
			}
		}
	}
}

// TestAbandonedStreamReleasesShards: a stream given up after one result and
// closed holds no shard any longer — a writer gets through — and delivers one
// record per shard and exactly one aggregate record, counting the one result.
func TestAbandonedStreamReleasesShards(t *testing.T) {
	rows, stats, bounds := loadDataset(t, dataset.Restaurants(0.0005))
	word := stats.WordsByFreq()[0]
	for name, s := range streamLayouts(t, spatialkeyword.Config{SignatureBytes: 16}, bounds, rows) {
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

// TestScanWalksEveryRowInGlobalOrder: Scan visits what a single engine's Scan
// visits — every stored row, deleted ones included, in ID order — by walking
// each shard's file once, not by a random Get per row; a tombstoned ID has no
// row; and a visitor's error stops the scan and releases every shard.
func TestScanWalksEveryRowInGlobalOrder(t *testing.T) {
	checkGoroutines(t)
	rows, _, bounds := loadDataset(t, dataset.Restaurants(0.001))
	cfg := spatialkeyword.Config{SignatureBytes: 16}
	single, err := spatialkeyword.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, single, rows)
	var want []spatialkeyword.Object
	if err := single.Scan(func(o spatialkeyword.Object) error { want = append(want, o); return nil }); err != nil {
		t.Fatal(err)
	}
	for name, s := range streamLayouts(t, cfg, bounds, rows) {
		for id := uint64(0); id < uint64(len(rows)); id += 5 {
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		stop := s.MeterIO()
		var got []spatialkeyword.Object
		if err := s.Scan(func(o spatialkeyword.Object) error { got = append(got, o); return nil }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Scan visited %d rows, a single engine's visits %d (deleted rows included), or they differ", name, len(got), len(want))
		}
		if random, sequential := stop(); random > uint64(2*s.NumShards()) || sequential == 0 {
			t.Errorf("%s: Scan read %d random and %d sequential blocks, want a front-to-back walk per shard", name, random, sequential)
		}

		// A reservation that never stored a row is skipped, not reported.
		gid := uint64(s.NumObjects())
		s.mu.Lock()
		_ = s.place(gid, tombstone)
		s.mu.Unlock()
		n := 0
		if err := s.Scan(func(spatialkeyword.Object) error { n++; return nil }); err != nil || n != len(want) {
			t.Fatalf("%s: Scan over a tombstone visited %d rows (%v), want %d", name, n, err, len(want))
		}

		// Stopping early returns the visitor's error and leaves no shard locked.
		errStop := fmt.Errorf("enough")
		n = 0
		err := s.Scan(func(spatialkeyword.Object) error {
			if n++; n == 3 {
				return errStop
			}
			return nil
		})
		if err != errStop || n != 3 {
			t.Fatalf("%s: stopped scan returned %v after %d rows", name, err, n)
		}
		if _, err := s.Add(rows[0].Point, "added after a stopped scan"); err != nil {
			t.Fatal(err)
		}
	}
}
