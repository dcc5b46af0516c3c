package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/objstore"
)

// bruteRanked scores every object exhaustively and returns the top k, the
// reference the general algorithm must match.
func bruteRanked(f *fixture, k int, p geo.Point, keywords []string, opts GeneralOptions, requireMatch bool) []RankedResult {
	comb := opts.Combiner
	if comb == nil {
		comb = irscore.DistanceDiscount{}
	}
	var all []RankedResult
	for _, o := range f.objects {
		ir := opts.Scorer.Score(o.Text, keywords)
		if requireMatch && ir == 0 {
			continue
		}
		d := p.Dist(o.Point)
		all = append(all, RankedResult{Object: o, Dist: d, IRScore: ir, Score: comb.Combine(d, ir)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Object.ID < all[j].Object.ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// sameScores compares two ranked lists by score sequence (object identity
// may differ on exact ties).
func sameScores(t *testing.T, got, want []RankedResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("rank %d: score %g, want %g (got obj %d, want obj %d)",
				i, got[i].Score, want[i].Score, got[i].Object.ID, want[i].Object.ID)
		}
	}
}

func generalScorer(f *fixture) *irscore.Scorer {
	return irscore.NewScorer(f.vocab.NumDocs(), f.vocab.DocFreq)
}

func TestGeneralMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	rows := randomRows(rng, 350)
	f := buildFixture(t, rows, 4, 8)
	scorer := generalScorer(f)

	queries := []struct {
		k        int
		keywords []string
	}{
		{1, []string{"internet"}},
		{5, []string{"internet", "pool"}},
		{10, []string{"spa", "gym", "golf"}},
		{25, []string{"wifi"}},
		{5, []string{"beach", "airport", "shuttle", "bar"}},
	}
	for _, multilevel := range []bool{false, true} {
		tree := f.ir2
		if multilevel {
			tree = f.mir2
		}
		for qi, q := range queries {
			p := geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
			opts := GeneralOptions{
				Scorer:       scorer,
				Combiner:     irscore.DistanceDiscount{Scale: 200},
				RequireMatch: true,
			}
			got, _, err := topKRanked(tree, q.k, p, q.keywords, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteRanked(f, q.k, p, q.keywords, opts, true)
			sameScores(t, got, want)
			// Scores must be non-increasing.
			for i := 1; i < len(got); i++ {
				if got[i].Score > got[i-1].Score+1e-12 {
					t.Fatalf("multilevel=%v query %d: scores out of order", multilevel, qi)
				}
			}
		}
	}
}

// linearCombiner is f = alpha·IRscore − (1−alpha)·dist/scale, the weighted
// trade-off of the later spatial-keyword literature: a second monotone
// Combiner, so the general algorithm is not only tested with its default.
type linearCombiner struct{ alpha, scale float64 }

func (c linearCombiner) Combine(dist, ir float64) float64 {
	return c.alpha*ir - (1-c.alpha)*dist/c.scale
}

func TestGeneralWithLinearCombiner(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	rows := randomRows(rng, 200)
	f := buildFixture(t, rows, 4, 8)
	scorer := generalScorer(f)
	opts := GeneralOptions{
		Scorer:       scorer,
		Combiner:     linearCombiner{alpha: 0.6, scale: 500},
		RequireMatch: true,
	}
	p := geo.NewPoint(300, 700)
	got, _, err := topKRanked(f.ir2, 8, p, []string{"pool", "sauna"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteRanked(f, 8, p, []string{"pool", "sauna"}, opts, true)
	sameScores(t, got, want)
}

func TestGeneralDisjunctiveSemantics(t *testing.T) {
	// An object containing only one of the keywords can be a result —
	// unlike distance-first conjunctive queries.
	f := buildFixture(t, figure1, 3, 16)
	scorer := generalScorer(f)
	opts := GeneralOptions{Scorer: scorer, RequireMatch: true}
	got, _, err := topKRanked(f.ir2, 8, geo.NewPoint(30.5, 100.0), []string{"internet", "pool"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// All 7 hotels containing internet or pool (H1..H4, H6..H8).
	if len(got) != 7 {
		t.Fatalf("got %d results, want 7 (disjunctive)", len(got))
	}
	for _, r := range got {
		if r.IRScore <= 0 {
			t.Errorf("object %d with zero IR score included", r.Object.ID)
		}
	}
}

func TestGeneralRequireMatchFalse(t *testing.T) {
	f := buildFixture(t, figure1, 3, 16)
	scorer := generalScorer(f)
	opts := GeneralOptions{Scorer: scorer, RequireMatch: false, Combiner: irscore.DistanceDiscount{Scale: 100}}
	got, _, err := topKRanked(f.ir2, 8, geo.NewPoint(30.5, 100.0), []string{"internet", "pool"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("got %d results, want all 8 (keyword-less objects admitted)", len(got))
	}
	want := bruteRanked(f, 8, geo.NewPoint(30.5, 100.0), []string{"internet", "pool"}, opts, false)
	sameScores(t, got, want)
}

func TestGeneralPrunesAgainstBaselineWork(t *testing.T) {
	// With RequireMatch, querying a rare word must not load many objects.
	rng := rand.New(rand.NewSource(53))
	rows := randomRows(rng, 400)
	rows[17].text = "only here unobtainium"
	f := buildFixture(t, rows, 4, 16)
	scorer := generalScorer(f)
	got, stats, err := topKRanked(f.ir2, 3, geo.NewPoint(0, 0), []string{"unobtainium"},
		GeneralOptions{Scorer: scorer, RequireMatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Object.ID != objstore.ID(17) {
		t.Fatalf("got %v", got)
	}
	if stats.ObjectsLoaded > 10 {
		t.Errorf("loaded %d objects for a unique keyword", stats.ObjectsLoaded)
	}
}

func TestGeneralEdgeCases(t *testing.T) {
	f := buildFixture(t, figure1, 3, 16)
	scorer := generalScorer(f)
	// k = 0.
	got, _, err := topKRanked(f.ir2, 0, geo.NewPoint(0, 0), []string{"pool"},
		GeneralOptions{Scorer: scorer})
	if err != nil || got != nil {
		t.Errorf("k=0: %v %v", got, err)
	}
	// Unknown keyword with RequireMatch: empty.
	got, _, err = topKRanked(f.ir2, 3, geo.NewPoint(0, 0), []string{"krypton"},
		GeneralOptions{Scorer: scorer, RequireMatch: true})
	if err != nil || len(got) != 0 {
		t.Errorf("unknown keyword: %v %v", got, err)
	}
	// Empty keywords with RequireMatch=false: pure spatial ranking.
	got, _, err = topKRanked(f.ir2, 3, geo.NewPoint(30.5, 100), nil,
		GeneralOptions{Scorer: scorer, Combiner: irscore.DistanceDiscount{Scale: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Object.ID != 3 {
		t.Errorf("pure spatial general query top = %v", got)
	}
}

func TestGeneralTieOnIdenticalObjects(t *testing.T) {
	// Multiple identical objects: all must surface, scores equal.
	rows := []struct {
		lat, lon float64
		text     string
	}{
		{10, 10, "twin pool"},
		{10, 10, "twin pool"},
		{10, 10, "twin pool"},
		{500, 500, "far pool"},
	}
	f := buildFixture(t, rows, 3, 8)
	scorer := generalScorer(f)
	got, _, err := topKRanked(f.ir2, 4, geo.NewPoint(10, 10), []string{"pool"},
		GeneralOptions{Scorer: scorer, RequireMatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d", len(got))
	}
	if got[0].Score != got[1].Score || got[1].Score != got[2].Score {
		t.Error("identical objects scored differently")
	}
	if got[3].Object.ID != 3 {
		t.Error("distant object not last")
	}
}

// TestGeneralMatchesIIOOracle cross-checks the tree's ranked search against
// an independent implementation: the general IIO baseline (posting-list
// union + exhaustive scoring). Two different code paths must produce the
// same score sequence.
// iioRankedScores is the paper's Section 5.1 extension of the IIO baseline to
// the general query, as an oracle: union the keywords' posting lists, load
// and score every candidate, and return the k best scores.
func iioRankedScores(t *testing.T, f *fixture, k int, p geo.Point, keywords []string, scorer *irscore.Scorer, comb irscore.Combiner) []float64 {
	t.Helper()
	normalized, _ := scorer.QueryIDFs(keywords)
	seen := make(map[uint64]bool)
	var scores []float64
	for _, w := range normalized {
		refs, err := f.inv.Postings(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range refs {
			if seen[ref] {
				continue
			}
			seen[ref] = true
			obj, err := f.store.Get(objstore.Ptr(ref))
			if err != nil {
				t.Fatal(err)
			}
			scores = append(scores, comb.Combine(p.Dist(obj.Point), scorer.Score(obj.Text, normalized)))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	if len(scores) > k {
		scores = scores[:k]
	}
	return scores
}

func TestGeneralMatchesIIOOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	rows := randomRows(rng, 250)
	f := buildFixture(t, rows, 4, 8)
	scorer := generalScorer(f)
	comb := irscore.DistanceDiscount{Scale: 300}
	for trial := 0; trial < 10; trial++ {
		p := geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
		kw := []string{"pool", "internet", "gym", "bar"}[:1+rng.Intn(4)]
		treeRes, _, err := topKRanked(f.ir2, 12, p, kw, GeneralOptions{
			Scorer: scorer, Combiner: comb, RequireMatch: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		iioScores := iioRankedScores(t, f, 12, p, kw, scorer, comb)
		if len(treeRes) != len(iioScores) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(treeRes), len(iioScores))
		}
		for i := range treeRes {
			if math.Abs(treeRes[i].Score-iioScores[i]) > 1e-9 {
				t.Fatalf("trial %d rank %d: tree %g vs iio %g",
					trial, i, treeRes[i].Score, iioScores[i])
			}
		}
	}
}
