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

// sameResults asserts two distance-first result lists are identical modulo
// distance ties: equal length, pairwise-equal distances, and — for every
// run of equal distances that is not truncated by the k cutoff — equal ID
// sets with matching payloads. The final (possibly truncated) run only has
// to agree on distances; its membership may legally differ between a single
// engine and a sharded merge.
// areaTopK is an area top-k as SKQL's TOP … WITHIN takes one: the first k
// of SearchArea, ties at the k-th distance to the smallest ID.
func areaTopK(t *testing.T, r spatialkeyword.Reader, k int, lo, hi []float64, keywords ...string) []spatialkeyword.Result {
	t.Helper()
	it, err := r.SearchArea(lo, hi, keywords...)
	return firstK[spatialkeyword.Result](t, it, err, k, true, distanceKey)
}

func sameResults(t *testing.T, label string, want, got []spatialkeyword.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Dist != got[i].Dist {
			t.Fatalf("%s: result %d dist %v, want %v", label, i, got[i].Dist, want[i].Dist)
		}
	}
	i := 0
	for i < len(want) {
		j := i
		for j < len(want) && want[j].Dist == want[i].Dist {
			j++
		}
		if j < len(want) { // complete run: membership must match exactly
			wantIDs := map[uint64]spatialkeyword.Result{}
			for _, r := range want[i:j] {
				wantIDs[r.Object.ID] = r
			}
			for _, r := range got[i:j] {
				w, ok := wantIDs[r.Object.ID]
				if !ok {
					t.Fatalf("%s: result id %d not in single-engine run at dist %v", label, r.Object.ID, r.Dist)
				}
				if w.Object.Text != r.Object.Text {
					t.Fatalf("%s: id %d text mismatch", label, r.Object.ID)
				}
			}
		}
		i = j
	}
}

// sameRanked is sameResults for general ranked output, keyed on Score.
func sameRanked(t *testing.T, label string, want, got []spatialkeyword.RankedResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Score != got[i].Score {
			t.Fatalf("%s: result %d score %v, want %v", label, i, got[i].Score, want[i].Score)
		}
	}
	i := 0
	for i < len(want) {
		j := i
		for j < len(want) && want[j].Score == want[i].Score {
			j++
		}
		if j < len(want) {
			wantIDs := map[uint64]bool{}
			for _, r := range want[i:j] {
				wantIDs[r.Object.ID] = true
			}
			for _, r := range got[i:j] {
				if !wantIDs[r.Object.ID] {
					t.Fatalf("%s: result id %d not in single-engine run at score %v", label, r.Object.ID, r.Score)
				}
			}
		}
		i = j
	}
}
