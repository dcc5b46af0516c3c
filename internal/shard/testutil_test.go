package shard

import (
	"math/rand"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/storage"
)

// loadDataset generates a seed dataset into a scratch store and returns its
// rows plus corpus statistics (for query keywords) and the dataset MBR.
func loadDataset(t testing.TB, spec dataset.Spec) ([]spatialkeyword.Object, *dataset.Stats, geo.Rect) {
	t.Helper()
	st := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
	stats, err := dataset.Generate(spec, st)
	if err != nil {
		t.Fatal(err)
	}
	var rows []spatialkeyword.Object
	var bounds geo.Rect
	err = st.Scan(func(o objstore.Object, _ objstore.Ptr) error {
		rows = append(rows, spatialkeyword.Object{ID: uint64(o.ID), Point: o.Point, Text: o.Text})
		r := geo.PointRect(o.Point)
		if bounds.IsZero() {
			bounds = r
		} else {
			bounds = bounds.Union(r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, stats, bounds
}

// fill adds every row to the engine (single or sharded) and asserts the
// assigned IDs match the rows' positions.
type adder interface {
	Add(point []float64, text string) (uint64, error)
}

// flushEach is an adder that flushes after every add, so each shard's tree
// is built by the paper's Insert, one row at a time, instead of packed.
type flushEach struct{ *ShardedEngine }

func (f flushEach) Add(point []float64, text string) (uint64, error) {
	id, err := f.ShardedEngine.Add(point, text)
	if err == nil {
		err = f.Flush()
	}
	return id, err
}

func fill(t testing.TB, eng adder, rows []spatialkeyword.Object) {
	t.Helper()
	for i, o := range rows {
		id, err := eng.Add(o.Point, o.Text)
		if err != nil {
			t.Fatal(err)
		}
		if id != uint64(i) {
			t.Fatalf("add %d assigned id %d", i, id)
		}
	}
}

// queryPoints derives deterministic query locations near the data.
func queryPoints(rows []spatialkeyword.Object, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		o := rows[rng.Intn(len(rows))]
		out[i] = []float64{o.Point[0] + rng.NormFloat64()*25, o.Point[1] + rng.NormFloat64()*25}
	}
	return out
}

// keywordSets draws keyword sets from the moderately frequent band of the
// vocabulary so conjunctive queries have answers.
func keywordSets(stats *dataset.Stats, n, words int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	byFreq := stats.WordsByFreq()
	band := byFreq
	if len(band) > 40 {
		band = band[2:40]
	}
	out := make([][]string, n)
	for i := range out {
		seen := map[string]bool{}
		var kws []string
		for len(kws) < words {
			w := band[rng.Intn(len(band))]
			if !seen[w] {
				seen[w] = true
				kws = append(kws, w)
			}
		}
		out[i] = kws
	}
	return out
}

// areaTopK is an area top-k as SKQL's TOP … WITHIN takes one: the first k
// of SearchArea, ties at the k-th distance to the smallest ID.
func areaTopK(t *testing.T, r spatialkeyword.Reader, k int, lo, hi []float64, keywords ...string) []spatialkeyword.Result {
	t.Helper()
	it, err := r.SearchArea(lo, hi, keywords...)
	return firstK[spatialkeyword.Result](t, it, err, k, true, distanceKey)
}

// sameResults asserts two distance-first result lists are identical: every
// backend breaks distance ties by smallest global ID, so a single engine and
// a sharded merge agree on every result, the last tie run included.
func sameResults(t *testing.T, label string, want, got []spatialkeyword.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g.Dist != w.Dist || g.Object.ID != w.Object.ID || g.Object.Text != w.Object.Text {
			t.Fatalf("%s: result %d is id %d at dist %v, want id %d at dist %v", label, i, g.Object.ID, g.Dist, w.Object.ID, w.Dist)
		}
	}
}

// sameRanked is sameResults for general ranked output, keyed on Score.
func sameRanked(t *testing.T, label string, want, got []spatialkeyword.RankedResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g.Score != w.Score || g.Object.ID != w.Object.ID {
			t.Fatalf("%s: result %d is id %d at score %v, want id %d at score %v", label, i, g.Object.ID, g.Score, w.Object.ID, w.Score)
		}
	}
}
