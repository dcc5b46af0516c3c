//go:build !race

// Allocation gates on the device that is served. The AllocsPerRun battery
// under internal/ builds on storage.NewDisk; skserve -dir reads a
// storage.Disk on a file (behind a ChecksumDisk with Config.Checksums). A warm
// query on a saved-and-reopened engine must allocate no more than the same
// query on the in-memory engine holding the same corpus: every device read
// lands in caller-owned scratch, whatever the device. Skipped under -race
// (the detector's instrumentation breaks AllocsPerRun's accounting).
package spatialkeyword

import (
	"fmt"
	"testing"
)

// allocCorpus loads a few thousand short rows, enough for a three-level tree
// and for keywords with very different selectivity.
func allocCorpus(t *testing.T, e *Engine) {
	t.Helper()
	words := []string{"pizza", "cafe", "bar", "sushi", "deli", "pub", "grill", "bakery", "diner", "bistro", "noodle"}
	for i := 0; i < 3000; i++ {
		text := fmt.Sprintf("%s %s place%d", words[i%len(words)], words[(i/7+3)%len(words)], i%97)
		if _, err := e.Add([]float64{float64(i%60) * 3, float64(i/60) * 3}, text); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableEngineAllocsMatchInMemory(t *testing.T) {
	for _, checksums := range []bool{false, true} {
		t.Run(fmt.Sprintf("checksums=%v", checksums), func(t *testing.T) {
			cfg := Config{SignatureBytes: 16, Checksums: checksums}
			mem, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			allocCorpus(t, mem)

			dir := t.TempDir()
			built, err := NewDurableEngine(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			allocCorpus(t, built)
			if err := built.Save(); err != nil {
				t.Fatal(err)
			}
			if err := built.Close(); err != nil {
				t.Fatal(err)
			}
			durable, err := OpenEngine(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer durable.Close()

			point := []float64{90, 75}
			queries := []struct {
				name string
				run  func(e *Engine) (int, error)
			}{
				{"TopK", func(e *Engine) (int, error) {
					res, err := e.TopK(10, point, "pizza", "deli")
					return len(res), err
				}},
				{"TopKRanked", func(e *Engine) (int, error) {
					res, err := e.TopKRanked(10, point, "pizza", "noodle", "place13")
					return len(res), err
				}},
				{"WithinArea", func(e *Engine) (int, error) {
					res, _, err := e.WithinArea([]float64{60, 45}, []float64{120, 105}, "cafe")
					return len(res), err
				}},
			}
			for _, q := range queries {
				measure := func(e *Engine) (allocs float64, results int) {
					run := func() {
						n, err := q.run(e)
						if err != nil {
							t.Fatal(err)
						}
						results = n
					}
					run() // warm the node cache and the scratch pools
					return testing.AllocsPerRun(100, run), results
				}
				memAllocs, memResults := measure(mem)
				durAllocs, durResults := measure(durable)
				if memResults == 0 || durResults != memResults {
					t.Fatalf("%s: %d results in memory, %d durable", q.name, memResults, durResults)
				}
				t.Logf("%s: %.0f allocs/op in memory, %.0f durable (%d results)", q.name, memAllocs, durAllocs, memResults)
				if durAllocs > memAllocs {
					t.Errorf("warm %s allocates %.0f objects/op on the reopened engine, %.0f in memory", q.name, durAllocs, memAllocs)
				}
			}
		})
	}
}

// TestWarmTopKRankedAllocs gates a warm ranked top-k on the engine's own
// corpus statistics at the 27 allocations it measures: two per returned
// row (its point and text), and seven for the query — its streams, scorer
// and result slice. A closure built per query, such as the vocabulary's
// DocFreq method value for the scorer, shows as one more.
func TestWarmTopKRankedAllocs(t *testing.T) {
	e, err := NewEngine(Config{SignatureBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	allocCorpus(t, e)
	var results int
	run := func() {
		res, err := e.TopKRanked(10, []float64{90, 75}, "pizza", "noodle", "place13")
		if err != nil {
			t.Fatal(err)
		}
		results = len(res)
	}
	run() // warm the node cache and the scratch pools
	allocs := testing.AllocsPerRun(100, run)
	t.Logf("warm TopKRanked: %.0f allocs/op for %d results", allocs, results)
	const budget = 27
	if results != 10 || allocs > budget {
		t.Fatalf("warm TopKRanked: %.0f allocs/op for %d results, want <= %d for 10", allocs, results, budget)
	}
}
