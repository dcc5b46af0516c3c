package shard

import (
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/geo"
)

// TestShardedMatchesSingleEngine is the correctness contract: a sharded
// engine with N>1 shards must return the same results as one engine holding
// all the data, for every query type, on the seed datasets — including
// after deletions. Distance/score ties are compared set-wise (see
// sameResults); everything else must match exactly.
func TestShardedMatchesSingleEngine(t *testing.T) {
	specs := []dataset.Spec{
		dataset.Restaurants(0.001),
		dataset.Hotels(0.0008),
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rows, stats, bounds := loadDataset(t, spec)
			cfg := spatialkeyword.Config{SignatureBytes: 16}

			single, err := spatialkeyword.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			grid, err := New(cfg, Options{Shards: 4, Bounds: bounds})
			if err != nil {
				t.Fatal(err)
			}
			hashed, err := New(cfg, Options{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			fill(t, single, rows)
			fill(t, grid, rows)
			fill(t, hashed, rows)

			// Delete a deterministic subset so deletion filtering and idf
			// semantics (deleted docs keep counting) are both exercised.
			for id := uint64(0); id < uint64(len(rows)); id += 7 {
				if err := single.Delete(id); err != nil {
					t.Fatal(err)
				}
				if err := grid.Delete(id); err != nil {
					t.Fatal(err)
				}
				if err := hashed.Delete(id); err != nil {
					t.Fatal(err)
				}
			}

			points := queryPoints(rows, 12, 42)
			kwSets := keywordSets(stats, 12, 2, 99)
			engines := []struct {
				name string
				s    *ShardedEngine
			}{{"grid4", grid}, {"hash3", hashed}}

			for qi, p := range points {
				kws := kwSets[qi]
				for _, k := range []int{1, 5, 20} {
					want, err := single.TopK(k, p, kws...)
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range engines {
						got, err := e.s.TopK(k, p, kws...)
						if err != nil {
							t.Fatal(err)
						}
						sameResults(t, e.name+" TopK", want, got)
					}
				}

				wantR, err := single.TopKRanked(10, p, kws...)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range engines {
					gotR, err := e.s.TopKRanked(10, p, kws...)
					if err != nil {
						t.Fatal(err)
					}
					sameRanked(t, e.name+" TopKRanked", wantR, gotR)
				}

				// Area queries around the query point.
				lo := []float64{p[0] - 200, p[1] - 200}
				hi := []float64{p[0] + 200, p[1] + 200}
				wantA := areaTopK(t, single, 8, lo, hi, kws...)
				wantW, err := single.WithinArea(lo, hi, kws[:1]...)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range engines {
					sameResults(t, e.name+" SearchArea", wantA, areaTopK(t, e.s, 8, lo, hi, kws...))
					gotW, err := e.s.WithinArea(lo, hi, kws[:1]...)
					if err != nil {
						t.Fatal(err)
					}
					if len(gotW) != len(wantW) {
						t.Fatalf("%s WithinArea = %d results, want %d", e.name, len(gotW), len(wantW))
					}
					for i := range wantW {
						if gotW[i].Object.ID != wantW[i].Object.ID {
							t.Fatalf("%s WithinArea[%d] = id %d, want %d",
								e.name, i, gotW[i].Object.ID, wantW[i].Object.ID)
						}
					}
				}
			}
		})
	}
}

// TestShardedEarlyStopStillExact drives the merge's early stop hard: a tight
// cluster on one shard with the query centered there means the other shards'
// best candidates can never beat the global k-th, so they must stop after
// peeking — and the answer must still be exact.
func TestShardedEarlyStopStillExact(t *testing.T) {
	bounds := geo.NewRect(geo.NewPoint(0, 0), geo.NewPoint(1000, 1000))
	cfg := spatialkeyword.Config{SignatureBytes: 16}
	single, err := spatialkeyword.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := New(cfg, Options{Shards: 4, Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	var rows []spatialkeyword.Object
	// Dense cluster in the south-west cell…
	for i := 0; i < 50; i++ {
		rows = append(rows, spatialkeyword.Object{
			Point: []float64{10 + float64(i%7), 10 + float64(i/7)},
			Text:  "harbor fish market pier",
		})
	}
	// …and sparse matches elsewhere.
	for i := 0; i < 30; i++ {
		rows = append(rows, spatialkeyword.Object{
			Point: []float64{600 + float64(i*13%350), 600 + float64(i*29%350)},
			Text:  "harbor fish restaurant",
		})
	}
	fill(t, single, rows)
	fill(t, sharded, rows)

	want, err := single.TopK(10, []float64{12, 12}, "harbor", "fish")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.TopK(10, []float64{12, 12}, "harbor", "fish")
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "clustered TopK", want, got)

	_, qs, err := sharded.TopKWithStats(10, []float64{12, 12}, "harbor", "fish")
	if err != nil {
		t.Fatal(err)
	}
	// The far shards must not have drained their whole object set.
	if qs.ObjectsLoaded >= len(rows) {
		t.Errorf("early stop ineffective: %d objects loaded of %d", qs.ObjectsLoaded, len(rows))
	}
}

// TestMergeBeyondCorpusAndOnTies pins the two edges of the one merge on the
// three top-k entry points. With k larger than the corpus each returns
// exactly the single engine's matches. With exact distance (and score) ties
// spread across shards and k cutting through the tie, the smallest global
// IDs win, in ID order.
func TestMergeBeyondCorpusAndOnTies(t *testing.T) {
	bounds := geo.NewRect(geo.NewPoint(0, 0), geo.NewPoint(1000, 1000))
	cfg := spatialkeyword.Config{SignatureBytes: 16}
	single, err := spatialkeyword.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := New(cfg, Options{Shards: 4, Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	// Twelve objects at distance exactly 50 from the centre, three per grid
	// cell, added round-robin so consecutive global IDs sit on different
	// shards; then a farther ring that never ties.
	var rows []spatialkeyword.Object
	corners := [][2]float64{{-30, -40}, {30, -40}, {-30, 40}, {30, 40}}
	for i := 0; i < 12; i++ {
		c := corners[i%4]
		rows = append(rows, spatialkeyword.Object{Point: []float64{500 + c[0], 500 + c[1]}, Text: "harbor fish"})
	}
	for i := 0; i < 8; i++ {
		c := corners[i%4]
		rows = append(rows, spatialkeyword.Object{Point: []float64{500 + 5*c[0], 500 + 5*c[1] + float64(i)}, Text: "harbor fish"})
	}
	fill(t, single, rows)
	fill(t, sharded, rows)
	center := []float64{500, 500}
	kws := []string{"harbor", "fish"}

	distance := map[string]func(k int) ([]spatialkeyword.Result, error){
		"TopK": func(k int) ([]spatialkeyword.Result, error) { return sharded.TopK(k, center, kws...) },
		"SearchArea": func(k int) ([]spatialkeyword.Result, error) {
			return areaTopK(t, sharded, k, center, center, kws...), nil
		},
	}
	ranked := map[string]func(k int) ([]spatialkeyword.RankedResult, error){
		"TopKRanked": func(k int) ([]spatialkeyword.RankedResult, error) { return sharded.TopKRanked(k, center, kws...) },
	}

	beyond := len(rows) + 10
	want, err := single.TopK(beyond, center, kws...)
	if err != nil {
		t.Fatal(err)
	}
	wantR, err := single.TopKRanked(beyond, center, kws...)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rows) || len(wantR) != len(rows) {
		t.Fatalf("single engine found %d / %d of %d", len(want), len(wantR), len(rows))
	}
	for name, run := range distance {
		got, err := run(beyond)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, name+" beyond corpus", want, got)
		tied, err := run(5)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range tied {
			if r.Object.ID != uint64(i) || r.Dist != 50 {
				t.Fatalf("%s on ties: result %d = id %d at %v, want id %d at 50", name, i, r.Object.ID, r.Dist, i)
			}
		}
		if len(tied) != 5 {
			t.Fatalf("%s on ties: %d results, want 5", name, len(tied))
		}
	}
	for name, run := range ranked {
		got, err := run(beyond)
		if err != nil {
			t.Fatal(err)
		}
		sameRanked(t, name+" beyond corpus", wantR, got)
		tied, err := run(5)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range tied {
			if r.Object.ID != uint64(i) || r.Score != wantR[0].Score {
				t.Fatalf("%s on ties: result %d = id %d score %v, want id %d score %v",
					name, i, r.Object.ID, r.Score, i, wantR[0].Score)
			}
		}
		if len(tied) != 5 {
			t.Fatalf("%s on ties: %d results, want 5", name, len(tied))
		}
	}
}
