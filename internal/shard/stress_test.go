package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/geo"
)

// TestShardedConcurrentStress hammers one sharded engine from many
// goroutines — inserts, deletes, and all three query types at once — to give
// the race detector something to chew on, then quiesces and cross-checks the
// final state against a single engine replaying the same history. Query
// results during the storm are only sanity-checked (they race with writes by
// design); the post-quiesce comparison is exact.
func TestShardedConcurrentStress(t *testing.T) {
	const (
		writers     = 4
		rowsPerGor  = 60
		queriers    = 4
		queryRounds = 40
		deleteEvery = 3
	)
	words := []string{"espresso", "harbor", "noodle", "gallery", "vinyl", "sauna", "taqueria", "cinema"}
	rowText := func(w, i int) string {
		return fmt.Sprintf("%s %s shop number %d", words[(w+i)%len(words)], words[(w*3+i*5)%len(words)], i)
	}

	s, err := New(spatialkeyword.Config{SignatureBytes: 16}, Options{
		Shards: 4,
		Bounds: geo.NewRect(geo.NewPoint(0, 0), geo.NewPoint(1000, 1000)),
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		histMu  sync.Mutex
		history = map[uint64]spatialkeyword.Object{} // global id → row
		deleted = map[uint64]bool{}
	)
	toDelete := make(chan uint64, writers*rowsPerGor)
	var writeWG sync.WaitGroup

	// Writers: each inserts its own deterministic rows, records the assigned
	// global id, and nominates every deleteEvery-th row for deletion.
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < rowsPerGor; i++ {
				pt := []float64{rng.Float64() * 1000, rng.Float64() * 1000}
				text := rowText(w, i)
				id, err := s.Add(pt, text)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				histMu.Lock()
				history[id] = spatialkeyword.Object{ID: id, Point: pt, Text: text}
				histMu.Unlock()
				if i%deleteEvery == 0 {
					toDelete <- id
				}
			}
		}(w)
	}

	// Deleter: consumes nominations concurrently with the writers.
	var delWG sync.WaitGroup
	delWG.Add(1)
	go func() {
		defer delWG.Done()
		for id := range toDelete {
			if err := s.Delete(id); err != nil {
				t.Errorf("delete %d: %v", id, err)
				return
			}
			histMu.Lock()
			deleted[id] = true
			histMu.Unlock()
		}
	}()

	// Queriers: all three ranked query types plus range, point lookups, and
	// stats, racing with the writes.
	var queryWG sync.WaitGroup
	for q := 0; q < queriers; q++ {
		queryWG.Add(1)
		go func(q int) {
			defer queryWG.Done()
			rng := rand.New(rand.NewSource(int64(q) + 100))
			for i := 0; i < queryRounds; i++ {
				p := []float64{rng.Float64() * 1000, rng.Float64() * 1000}
				kw := words[rng.Intn(len(words))]
				res, err := s.TopK(5, p, kw)
				if err != nil {
					t.Errorf("querier %d TopK: %v", q, err)
					return
				}
				for j := 1; j < len(res); j++ {
					if res[j].Dist < res[j-1].Dist {
						t.Errorf("querier %d: TopK out of order", q)
						return
					}
				}
				if _, err := s.TopKRanked(5, p, kw, words[rng.Intn(len(words))]); err != nil {
					t.Errorf("querier %d TopKRanked: %v", q, err)
					return
				}
				lo := []float64{p[0] - 100, p[1] - 100}
				hi := []float64{p[0] + 100, p[1] + 100}
				if _, err := drain[spatialkeyword.Result](s.SearchArea(lo, hi, kw)); err != nil {
					t.Errorf("querier %d SearchArea: %v", q, err)
					return
				}
				if _, _, err := s.WithinArea(lo, hi, kw); err != nil {
					t.Errorf("querier %d WithinArea: %v", q, err)
					return
				}
				if n := s.Stats().Objects; n < 0 {
					t.Errorf("querier %d: negative object count %d", q, n)
					return
				}
			}
		}(q)
	}

	writeWG.Wait()
	close(toDelete)
	delWG.Wait()
	queryWG.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Quiesced cross-check: replay the same history (rows in global ID
	// order, then the deletions) into a single engine — IDs line up because
	// sharded global IDs are insertion-ordered — and compare every query
	// type exactly.
	total := writers * rowsPerGor
	if len(history) != total {
		t.Fatalf("recorded %d rows, want %d", len(history), total)
	}
	single, err := spatialkeyword.NewEngine(spatialkeyword.Config{SignatureBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < uint64(total); id++ {
		row, ok := history[id]
		if !ok {
			t.Fatalf("global id %d never recorded: ids must be dense", id)
		}
		got, err := single.Add(row.Point, row.Text)
		if err != nil {
			t.Fatal(err)
		}
		if got != id {
			t.Fatalf("replay assigned id %d, want %d", got, id)
		}
	}
	for id := range deleted {
		if err := single.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(2024))
	for i := 0; i < 10; i++ {
		p := []float64{rng.Float64() * 1000, rng.Float64() * 1000}
		kws := []string{words[rng.Intn(len(words))], words[rng.Intn(len(words))]}
		want, err := single.TopK(7, p, kws[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.TopK(7, p, kws[0])
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "quiesced TopK", want, got)

		wantR, err := single.TopKRanked(7, p, kws...)
		if err != nil {
			t.Fatal(err)
		}
		gotR, err := s.TopKRanked(7, p, kws...)
		if err != nil {
			t.Fatal(err)
		}
		sameRanked(t, "quiesced TopKRanked", wantR, gotR)

		lo := []float64{p[0] - 150, p[1] - 150}
		hi := []float64{p[0] + 150, p[1] + 150}
		wantW, _, err := single.WithinArea(lo, hi, kws[0])
		if err != nil {
			t.Fatal(err)
		}
		gotW, _, err := s.WithinArea(lo, hi, kws[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(gotW) != len(wantW) {
			t.Fatalf("quiesced WithinArea = %d results, want %d", len(gotW), len(wantW))
		}
		for j := range wantW {
			if gotW[j].Object.ID != wantW[j].Object.ID {
				t.Fatalf("quiesced WithinArea[%d] = id %d, want %d", j, gotW[j].Object.ID, wantW[j].Object.ID)
			}
		}
	}
}

// checkNoGoroutineLeak fails the test if it ends with more goroutines than
// it started with (after a grace period for runtime bookkeeping).
func checkNoGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// idKey flattens a result list into a comparable string of object IDs.
func idKey[T any](res []T, id func(T) uint64) string {
	ids := make([]uint64, len(res))
	for i, r := range res {
		ids[i] = id(r)
	}
	return fmt.Sprint(ids)
}

// TestConcurrentWarmQueries hammers the warm read hot path — the shared
// decoded-node cache, the pooled traversal scratch, and the per-iterator row
// scratch — from many goroutines at once, against both a single Engine and a
// ShardedEngine, checking every answer against a single-threaded oracle
// computed up front. Run under -race this is the data-race gate for the
// packed node cache; the goroutine-leak check covers the sharded engine's
// query lifecycle. Unlike TestShardedConcurrentStress there are no writers:
// the point is that a purely warm, hit-dominated workload stays correct and
// race-free under contention.
func TestConcurrentWarmQueries(t *testing.T) {
	checkNoGoroutineLeak(t)
	eng, err := spatialkeyword.NewEngine(spatialkeyword.Config{SignatureBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	sh := newTestEngine(t, 4)

	words := []string{"pizza", "cafe", "bar", "sushi", "deli", "pub", "grill", "bakery", "pool", "wifi"}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		pt := []float64{rng.Float64() * 100, rng.Float64() * 100}
		text := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		if _, err := eng.Add(pt, text); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.Add(pt, text); err != nil {
			t.Fatal(err)
		}
	}

	type stressQuery struct {
		point    []float64
		keywords []string
	}
	queries := make([]stressQuery, 16)
	for i := range queries {
		queries[i] = stressQuery{
			point:    []float64{rng.Float64() * 100, rng.Float64() * 100},
			keywords: []string{words[rng.Intn(len(words))], words[rng.Intn(len(words))]},
		}
	}
	topkID := func(r spatialkeyword.Result) uint64 { return r.Object.ID }
	rankedID := func(r spatialkeyword.RankedResult) uint64 { return r.Object.ID }

	// Single-threaded oracle answers; these first runs also warm the node
	// caches, so the concurrent phase exercises the hit path.
	engTopK := make([]string, len(queries))
	engRanked := make([]string, len(queries))
	shTopK := make([]string, len(queries))
	shRanked := make([]string, len(queries))
	for i, q := range queries {
		res, err := eng.TopK(5, q.point, q.keywords...)
		if err != nil {
			t.Fatal(err)
		}
		engTopK[i] = idKey(res, topkID)
		rres, err := eng.TopKRanked(5, q.point, q.keywords...)
		if err != nil {
			t.Fatal(err)
		}
		engRanked[i] = idKey(rres, rankedID)
		sres, err := sh.TopK(5, q.point, q.keywords...)
		if err != nil {
			t.Fatal(err)
		}
		shTopK[i] = idKey(sres, topkID)
		srres, err := sh.TopKRanked(5, q.point, q.keywords...)
		if err != nil {
			t.Fatal(err)
		}
		shRanked[i] = idKey(srres, rankedID)
	}

	const workers = 8
	const rounds = 5
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i, q := range queries {
					res, err := eng.TopK(5, q.point, q.keywords...)
					if err != nil {
						errc <- err
						return
					}
					if got := idKey(res, topkID); got != engTopK[i] {
						errc <- fmt.Errorf("worker %d query %d: engine topk %s, oracle %s", w, i, got, engTopK[i])
						return
					}
					rres, err := eng.TopKRanked(5, q.point, q.keywords...)
					if err != nil {
						errc <- err
						return
					}
					if got := idKey(rres, rankedID); got != engRanked[i] {
						errc <- fmt.Errorf("worker %d query %d: engine ranked %s, oracle %s", w, i, got, engRanked[i])
						return
					}
					sres, err := sh.TopK(5, q.point, q.keywords...)
					if err != nil {
						errc <- err
						return
					}
					if got := idKey(sres, topkID); got != shTopK[i] {
						errc <- fmt.Errorf("worker %d query %d: sharded topk %s, oracle %s", w, i, got, shTopK[i])
						return
					}
					srres, err := sh.TopKRanked(5, q.point, q.keywords...)
					if err != nil {
						errc <- err
						return
					}
					if got := idKey(srres, rankedID); got != shRanked[i] {
						errc <- fmt.Errorf("worker %d query %d: sharded ranked %s, oracle %s", w, i, got, shRanked[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The cache actually carried the load: warm queries must be hitting.
	if st := eng.NodeCacheStats(); st.Hits == 0 {
		t.Error("engine node cache saw no hits under the warm workload")
	}
	if st := sh.NodeCacheStats(); st.Hits == 0 {
		t.Error("sharded node cache saw no hits under the warm workload")
	}
}
