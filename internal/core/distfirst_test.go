package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/invindex"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/textutil"
)

// TestPaperExample3 replays the paper's Example 3: the distance-first IR²
// query top-2 from [30.5, 100.0] with {"internet", "pool"} returns H7 then
// H2, at distances ≈181.9 and ≈222.8.
func TestPaperExample3(t *testing.T) {
	f := buildFixture(t, figure1, 3, 16)
	for name, tree := range map[string]*IR2Tree{"IR2": f.ir2, "MIR2": f.mir2} {
		t.Run(name, func(t *testing.T) {
			results, stats, err := tree.TopK(2, geo.NewPoint(30.5, 100.0), []string{"internet", "pool"})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 2 {
				t.Fatalf("got %d results", len(results))
			}
			// H7 is objects[6] (ID 6), H2 is objects[1] (ID 1).
			if results[0].Object.ID != 6 || results[1].Object.ID != 1 {
				t.Errorf("order = H%d, H%d; want H7, H2",
					results[0].Object.ID+1, results[1].Object.ID+1)
			}
			if d := results[0].Dist; d < 181.9 || d > 182.0 {
				t.Errorf("first distance = %g, want ≈181.92", d)
			}
			if d := results[1].Dist; d < 222.8 || d > 222.9 {
				t.Errorf("second distance = %g, want ≈222.83", d)
			}
			if stats.ObjectsLoaded < 2 {
				t.Errorf("stats = %+v", stats)
			}
		})
	}
}

// TestSignaturePruning reproduces the pruning behavior Example 3 narrates:
// with the IR²-Tree the query touches fewer objects than the R-Tree
// baseline, because subtrees without matching signatures are never entered.
func TestSignaturePruning(t *testing.T) {
	f := buildFixture(t, figure1, 3, 16)
	q := geo.NewPoint(30.5, 100.0)
	kw := []string{"internet", "pool"}
	_, ir2Stats, err := f.ir2.TopK(2, q, kw)
	if err != nil {
		t.Fatal(err)
	}
	_, baseStats, err := f.base.TopK(2, q, kw)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline must walk through H4, H3, H5, H8, H6, H1 before finding
	// H7 and H2: 8 object loads. The IR² tree loads only matching
	// candidates (2, modulo signature false positives).
	if baseStats.ObjectsLoaded != 8 {
		t.Errorf("baseline loaded %d objects, want 8", baseStats.ObjectsLoaded)
	}
	if ir2Stats.ObjectsLoaded >= baseStats.ObjectsLoaded {
		t.Errorf("IR² loaded %d objects, baseline %d — no pruning",
			ir2Stats.ObjectsLoaded, baseStats.ObjectsLoaded)
	}
	if ir2Stats.ObjectsLoaded < 2 {
		t.Errorf("IR² loaded %d objects, want >= 2", ir2Stats.ObjectsLoaded)
	}
}

func TestDistanceFirstMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rows := randomRows(rng, 400)
	f := buildFixture(t, rows, 4, 8)
	queries := []struct {
		k        int
		keywords []string
	}{
		{1, []string{"internet"}},
		{5, []string{"pool"}},
		{10, []string{"internet", "pool"}},
		{3, []string{"spa", "gym", "bar"}},
		{20, []string{"wifi", "breakfast"}},
		{5, []string{"notaword"}},
		{5, nil},
	}
	for qi, q := range queries {
		p := geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
		want := objIDs(bruteTopK(f.objects, q.k, p, q.keywords))
		for name, tree := range map[string]*IR2Tree{"IR2": f.ir2, "MIR2": f.mir2} {
			got, _, err := tree.TopK(q.k, p, q.keywords)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(resultIDs(got)) != fmt.Sprint(want) {
				t.Errorf("query %d (%s): got %v, want %v", qi, name, resultIDs(got), want)
			}
		}
		gotBase, _, err := f.base.TopK(q.k, p, q.keywords)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(resultIDs(gotBase)) != fmt.Sprint(want) {
			t.Errorf("query %d (baseline): got %v, want %v", qi, resultIDs(gotBase), want)
		}
		gotIIO, _, err := invindex.TopK(f.inv, f.store, q.k, p, q.keywords)
		if err != nil {
			t.Fatal(err)
		}
		iioIDs := make([]objstore.ID, len(gotIIO))
		for i, r := range gotIIO {
			iioIDs[i] = r.Object.ID
		}
		// IIO returns nothing for an empty keyword list by construction; the
		// paper's queries always have keywords.
		if len(q.keywords) > 0 {
			if fmt.Sprint(iioIDs) != fmt.Sprint(want) {
				t.Errorf("query %d (IIO): got %v, want %v", qi, iioIDs, want)
			}
		}
	}
}

func TestSearchIteratorStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	rows := randomRows(rng, 200)
	f := buildFixture(t, rows, 4, 8)
	p := geo.NewPoint(500, 500)
	it := f.sir2.Search(p, []string{"pool"}, f.rows)
	want := bruteTopK(f.objects, len(f.objects), p, []string{"pool"})
	prev := -1.0
	for i := 0; ; i++ {
		res, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(want) {
				t.Fatalf("stream ended at %d, want %d results", i, len(want))
			}
			break
		}
		if res.Dist < prev {
			t.Fatalf("distance order violated at %d", i)
		}
		prev = res.Dist
		if res.Object.ID != want[i].ID {
			t.Fatalf("result %d = %d, want %d", i, res.Object.ID, want[i].ID)
		}
	}
	if it.Stats().ObjectsLoaded < len(want) {
		t.Error("stats undercount object loads")
	}
}

func TestTopKEdgeCases(t *testing.T) {
	f := buildFixture(t, figure1, 3, 16)
	// k = 0.
	res, _, err := f.ir2.TopK(0, geo.NewPoint(0, 0), []string{"pool"})
	if err != nil || len(res) != 0 {
		t.Errorf("k=0: %v, %v", res, err)
	}
	// k larger than matches.
	res, _, err = f.ir2.TopK(100, geo.NewPoint(0, 0), []string{"pool"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Errorf("k=100 with 5 pool hotels: got %d", len(res))
	}
	// No keywords: pure NN over all objects.
	res, _, err = f.ir2.TopK(3, geo.NewPoint(30.5, 100.0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0].Object.ID != 3 {
		t.Errorf("pure NN top = %v", resultIDs(res))
	}
	// Nonexistent keyword.
	res, stats, err := f.ir2.TopK(3, geo.NewPoint(0, 0), []string{"submarine"})
	if err != nil || len(res) != 0 {
		t.Errorf("nonexistent keyword: %v, %v", res, err)
	}
	// With a 16-byte signature over tiny docs, a single absent word should
	// prune everything or nearly everything.
	if stats.ObjectsLoaded > 2 {
		t.Errorf("absent keyword loaded %d objects", stats.ObjectsLoaded)
	}
}

func TestFalsePositivesDetectedWithTinySignatures(t *testing.T) {
	// A 1-byte signature over a 14-word vocabulary saturates, forcing false
	// positives; results must still be exact and the counter must move.
	rng := rand.New(rand.NewSource(33))
	rows := randomRows(rng, 300)
	f := buildFixture(t, rows, 4, 1)
	p := geo.NewPoint(400, 400)
	kw := []string{"airport", "golf"}
	got, stats, err := f.ir2.TopK(10, p, kw)
	if err != nil {
		t.Fatal(err)
	}
	want := objIDs(bruteTopK(f.objects, 10, p, kw))
	if fmt.Sprint(resultIDs(got)) != fmt.Sprint(want) {
		t.Errorf("results wrong under saturation: %v vs %v", resultIDs(got), want)
	}
	if stats.FalsePositives == 0 {
		t.Error("expected false positives with a saturated 1-byte signature")
	}
	if stats.ObjectsLoaded != len(got)+stats.FalsePositives {
		t.Errorf("load accounting: loaded=%d results=%d fp=%d",
			stats.ObjectsLoaded, len(got), stats.FalsePositives)
	}
}

func TestBaselineLoadsEverythingOnMiss(t *testing.T) {
	// Paper: "In the worst case (when none of the objects satisfies the
	// query's keywords) the entire tree has to be traversed and every
	// object has to be inspected."
	rng := rand.New(rand.NewSource(34))
	rows := randomRows(rng, 150)
	f := buildFixture(t, rows, 4, 8)
	_, stats, err := f.base.TopK(1, geo.NewPoint(0, 0), []string{"nosuchword"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ObjectsLoaded != len(rows) {
		t.Errorf("baseline loaded %d, want all %d", stats.ObjectsLoaded, len(rows))
	}
}

func TestStatsNodesLoaded(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	rows := randomRows(rng, 300)
	f := buildFixture(t, rows, 4, 8)
	_, stats, err := f.ir2.TopK(5, geo.NewPoint(100, 100), []string{"pool"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesLoaded <= 0 {
		t.Errorf("NodesLoaded = %d", stats.NodesLoaded)
	}
	total := f.ir2.RTree().NumNodes()
	if stats.NodesLoaded > total {
		t.Errorf("NodesLoaded %d exceeds node count %d", stats.NodesLoaded, total)
	}
}

// TestStreamsReportRowsMissingFromTable: a candidate the row table does not
// hold is an error from every stream's Next, and its row is never read to
// test it instead. The table holds Figure 1's first four hotels; "pool" is
// also in hotels G and H.
func TestStreamsReportRowsMissingFromTable(t *testing.T) {
	f := buildFixture(t, figure1, 3, 16)
	short := &Rows{Vocab: textutil.NewVocabulary()}
	for _, o := range f.objects[:4] {
		short.Add(o.ID, o.Point, nil, o.Text)
	}
	p, kw := geo.NewPoint(30.5, 100), []string{"pool"}
	world := geo.NewRect(geo.NewPoint(-90, -180), geo.NewPoint(90, 180))
	drain := func(it *ResultIter) (SearchStats, error) {
		defer it.Close()
		_, err := TakeK(len(f.objects), it.Next)
		return it.Stats(), err
	}
	for name, run := range map[string]func() (SearchStats, error){
		"Search":       func() (SearchStats, error) { return drain(f.sir2.Search(p, kw, short)) },
		"SearchArea":   func() (SearchStats, error) { return drain(f.sir2.SearchArea(world, kw, short)) },
		"SearchWithin": func() (SearchStats, error) { return drain(f.sir2.SearchWithin(world, kw, short)) },
		"SearchRanked": func() (SearchStats, error) {
			it := f.sir2.SearchRanked(p, kw, GeneralOptions{Scorer: generalScorer(f)}, short)
			defer it.Close()
			_, err := TakeK(len(f.objects), it.Next)
			return it.Stats(), err
		},
	} {
		st, err := run()
		if err == nil || !strings.Contains(err.Error(), "row table") {
			t.Errorf("%s: err %v, want the missing row reported", name, err)
		}
		if st.ObjectsLoaded > 3 {
			t.Errorf("%s: %d rows read, more than the table's three pool hotels", name, st.ObjectsLoaded)
		}
	}
}
