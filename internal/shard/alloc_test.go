//go:build !race

// Allocation gate on the shard merge. Skipped under -race: the detector's
// instrumentation breaks testing.AllocsPerRun's accounting.
package shard

import (
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/obs"
)

// TestOneShardMergeAllocs gates what the merge adds to a warm query on a
// one-shard engine, the layout skserve serves by default: the benchmarks'
// rows and query cycle, k = 10. The budgets are the figures the free-running
// merge read before the stream's first k took its place; the plain engine
// under the same queries is logged beside them, the difference being the
// merge's own overhead. With a registry sink recording every query the
// figure must not move: the recorder holds its series' handles.
func TestOneShardMergeAllocs(t *testing.T) {
	rows, stats, _ := loadDataset(t, benchSpec)
	cfg := spatialkeyword.Config{SignatureBytes: 16}
	single, err := spatialkeyword.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, single, rows)
	s, err := New(cfg, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, rows)
	points, kwSets := queryPoints(rows, 32, 42), keywordSets(stats, 32, 2, 99)

	type query func(e spatialkeyword.Reader, p []float64, kws []string) error
	for _, q := range []struct {
		name   string
		budget float64
		run    query
	}{
		{"TopKWithStats", 79, func(e spatialkeyword.Reader, p []float64, kws []string) error {
			_, _, err := e.TopKWithStats(10, p, kws...)
			return err
		}},
		{"TopKRanked", 172, func(e spatialkeyword.Reader, p []float64, kws []string) error {
			_, err := e.TopKRanked(10, p, kws...)
			return err
		}},
	} {
		measure := func(e spatialkeyword.Reader) float64 {
			i := 0
			run := func() {
				if err := q.run(e, points[i%len(points)], kwSets[i%len(kwSets)]); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for range points {
				run() // warm the node cache and the scratch pools
			}
			return testing.AllocsPerRun(100, run)
		}
		got, base := measure(s), measure(single)
		s.SetMetricsSink(obs.NewQueryRecorder(obs.NewRegistry()))
		sunk := measure(s)
		s.SetMetricsSink(nil)
		t.Logf("%s: %.0f allocs/op on one shard (%.0f recording), %.0f on the plain engine", q.name, got, sunk, base)
		if got > q.budget {
			t.Errorf("%s allocates %.0f objects/op on one shard, budget %.0f", q.name, got, q.budget)
		}
		if sunk > got {
			t.Errorf("%s allocates %.0f objects/op recording into a registry, %.0f without a sink", q.name, sunk, got)
		}
	}
}

// TestCorpusAllocFree gates what every SKQL plan and every sharded ranked
// query pays for the corpus statistics: Corpus and a DocFreq lookup
// through it allocate nothing, on 4 shards and on one engine.
func TestCorpusAllocFree(t *testing.T) {
	s, err := New(spatialkeyword.Config{}, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := s.Add([]float64{float64(i), float64(i % 7)}, "pool spa cafe"); err != nil {
			t.Fatal(err)
		}
	}
	e, err := spatialkeyword.NewEngine(spatialkeyword.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]interface {
		Corpus() spatialkeyword.CorpusStats
	}{"4 shards": s, "engine": e} {
		df := 0
		allocs := testing.AllocsPerRun(100, func() {
			df += r.Corpus().DocFreq("pool")
		})
		if allocs != 0 {
			t.Errorf("%s: Corpus().DocFreq allocates %.1f objects/op, want 0", name, allocs)
		}
	}
	if got := s.Corpus(); got.NumDocs != 40 || got.DocFreq("pool") != 40 {
		t.Errorf("4 shards: %d docs, df(pool) %d, want 40 and 40", got.NumDocs, got.DocFreq("pool"))
	}
}

// TestRankedQuerySetupAllocFree gates what a sharded ranked query — every
// /ranked, and every SKQL RANKED statement — pays before its first lane
// opens: resolving its keywords' corpus-wide document frequencies and
// building the lane opener allocate nothing once warm, on 4 shards with 3
// keywords. The query is ended as a stream with no lane ends it.
func TestRankedQuerySetupAllocFree(t *testing.T) {
	s, err := New(spatialkeyword.Config{}, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := s.Add([]float64{float64(i), float64(i % 7)}, "pool spa cafe"); err != nil {
			t.Fatal(err)
		}
	}
	p, kws := []float64{3, 4}, []string{"pool", "spa", "wifi"}
	allocs := testing.AllocsPerRun(100, func() {
		st := mergedStream[spatialkeyword.RankedResult]{s: s, q: s.rankedQuery("ranked", 10, p, kws)}
		st.end(0)
	})
	if allocs != 0 {
		t.Errorf("a 4-shard ranked query's setup allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRankedLaneAllocs gates what each shard past the first adds to a warm
// ranked top-k: the lane's stream, the engine's ranked state (its scorer,
// keywords, idfs and probes, per-level keyword signatures, the traversal
// and its candidate map) and the merge's hold on it. On benchMerge's rows
// and keyword pairs, the 3 lanes 4 shards open beyond one shard's must
// allocate at most 4 objects each, averaged over the query cycle.
func TestRankedLaneAllocs(t *testing.T) {
	rows, stats, _ := loadDataset(t, benchSpec)
	points, kwSets := queryPoints(rows, 32, 42), keywordSets(stats, 32, 2, 99)
	measure := func(shards int) float64 {
		s, err := New(spatialkeyword.Config{SignatureBytes: 16}, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		fill(t, s, rows)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		i := 0
		run := func() {
			if _, err := s.TopKRanked(10, points[i%len(points)], kwSets[i%len(kwSets)]...); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for range points {
			run() // warm the node caches and the scratch pools
		}
		return testing.AllocsPerRun(len(points)*4, run)
	}
	one, four := measure(1), measure(4)
	perLane := (four - one) / 3
	t.Logf("ranked top-10: %.1f allocs/op on 1 shard, %.1f on 4: %.1f per extra lane", one, four, perLane)
	if perLane > 4 {
		t.Errorf("each lane past the first allocates %.1f objects per ranked query, want at most 4", perLane)
	}
}
