package spatialkeyword_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/skql"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// diffModel is the brute-force model both engines of the differential test
// must agree with: every row ever added, by ID, and the deleted IDs.
type diffModel struct {
	rows    []spatialkeyword.Object
	deleted map[uint64]bool
	sets    []map[string]struct{} // each row's token set, filled by holds
}

// holds reports whether row o holds every keyword (textutil.ContainsAll on
// its text, with the row's token set built once).
func (m *diffModel) holds(o spatialkeyword.Object, kws []string) bool {
	for len(m.sets) < len(m.rows) {
		m.sets = append(m.sets, textutil.TokenSet(m.rows[len(m.sets)].Text))
	}
	var plain *textutil.Analyzer
	for _, w := range kws {
		if _, ok := m.sets[o.ID][plain.Keyword(w)]; !ok {
			return false
		}
	}
	return true
}

func (m *diffModel) dist(o spatialkeyword.Object, p []float64) float64 {
	var d float64
	for i := range p {
		d += (o.Point[i] - p[i]) * (o.Point[i] - p[i])
	}
	return math.Sqrt(d)
}

// matches returns the live rows holding every keyword, in ID order.
func (m *diffModel) matches(kws []string) []spatialkeyword.Object {
	var out []spatialkeyword.Object
	for _, o := range m.rows {
		if !m.deleted[o.ID] && m.holds(o, kws) {
			out = append(out, o)
		}
	}
	return out
}

// topK is the distance-first answer: ties break by ID.
func (m *diffModel) topK(k int, p []float64, kws []string) []uint64 {
	cands := m.matches(kws)
	sort.SliceStable(cands, func(a, b int) bool { return m.dist(cands[a], p) < m.dist(cands[b], p) })
	ids := []uint64{}
	for i := 0; i < len(cands) && i < k; i++ {
		ids = append(ids, cands[i].ID)
	}
	return ids
}

// ranked is the general ranked answer: every live row with a non-zero tf-idf
// score — holding every keyword when all is set, as SKQL's MATCH a AND b
// requires — by descending combined score.
func (m *diffModel) ranked(cs spatialkeyword.CorpusStats, k int, p []float64, kws []string, all bool) []uint64 {
	scorer := irscore.NewScorer(cs.NumDocs, cs.DocFreq)
	type cand struct {
		id    uint64
		score float64
	}
	var cands []cand
	for _, o := range m.rows {
		if m.deleted[o.ID] || all && !textutil.ContainsAll(o.Text, kws) {
			continue
		}
		if ir := scorer.Score(o.Text, kws); ir > 0 {
			cands = append(cands, cand{o.ID, irscore.Combine(m.dist(o, p), ir)})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].score > cands[b].score })
	ids := []uint64{}
	for i := 0; i < len(cands) && i < k; i++ {
		ids = append(ids, cands[i].id)
	}
	return ids
}

// within is the area answer, in ID order.
func (m *diffModel) within(lo, hi []float64, kws []string) []uint64 {
	ids := []uint64{}
	for _, o := range m.matches(kws) {
		inside := true
		for i := range lo {
			inside = inside && o.Point[i] >= lo[i] && o.Point[i] <= hi[i]
		}
		if inside {
			ids = append(ids, o.ID)
		}
	}
	return ids
}

func ids(rs []spatialkeyword.Result) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = r.Object.ID
	}
	return out
}

func rankedIDs(rs []spatialkeyword.RankedResult) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = r.Object.ID
	}
	return out
}

func sortedIDs(rs []spatialkeyword.Result) []uint64 {
	out := ids(rs)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// backend is what the differential test drives: a single Engine or a
// ShardedEngine.
type backend interface {
	spatialkeyword.Reader
	Add(point []float64, text string) (uint64, error)
	Delete(id uint64) error
	TopK(k int, point []float64, keywords ...string) ([]spatialkeyword.Result, error)
}

// TestBatchBuiltMatchesInsertBuilt loads the same rows into two backends: one
// indexes them as one batch at its first query (a packed tree per shard), the
// other flushes after every add (the paper's insert-built tree). Every query
// kind, native and through SKQL, must answer the same on both and match brute
// force — before and after further adds and deletes reach both trees through
// Insert and Delete. The engine arm runs single engines, the sharded arm
// ShardedEngines over 4 hash shards.
func TestBatchBuiltMatchesInsertBuilt(t *testing.T) {
	for _, tc := range []struct {
		spec     dataset.Spec
		sigBytes int
	}{{dataset.Restaurants(0.003), 16}, {dataset.Hotels(0.002), 189}} {
		t.Run(tc.spec.Name, func(t *testing.T) {
			store := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
			stats, err := dataset.Generate(tc.spec, store)
			if err != nil {
				t.Fatal(err)
			}
			var rows []spatialkeyword.Object
			if err := store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
				rows = append(rows, spatialkeyword.Object{ID: uint64(o.ID), Point: o.Point, Text: o.Text})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			cfg := spatialkeyword.Config{SignatureBytes: tc.sigBytes}
			for _, arm := range []struct {
				name string
				open func() (backend, error)
			}{
				{"engine", func() (backend, error) { return spatialkeyword.NewEngine(cfg) }},
				{"sharded", func() (backend, error) { return shard.New(cfg, shard.Options{Shards: 4}) }},
			} {
				t.Run(arm.name, func(t *testing.T) {
					batch, err := arm.open()
					if err != nil {
						t.Fatal(err)
					}
					inserted, err := arm.open()
					if err != nil {
						t.Fatal(err)
					}
					compareBuilds(t, rows, stats.WordsByFreq(), batch, inserted)
				})
			}
		})
	}
}

// TestShardedSavePacksEveryShard: a sharded load followed by Save hands each
// shard its adds as one batch, so every shard's tree is packed — no more
// nodes than STR over the shard's rows, fewer than repeated Insert — and
// structurally sound.
func TestShardedSavePacksEveryShard(t *testing.T) {
	store := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
	if _, err := dataset.Generate(dataset.Restaurants(0.02), store); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := shard.NewDurable(spatialkeyword.Config{SignatureBytes: 64}, dir, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
		_, err := s.Add(o.Point, o.Text)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NumShards(); i++ {
		e, err := spatialkeyword.OpenEngine(s.ShardDir(i))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprint("shard", i), func(t *testing.T) { spatialkeyword.CheckPacked(t, e) })
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// compareBuilds loads rows into both backends, inserted flushing after every
// add, compares them, mutates both and compares again.
func compareBuilds(t *testing.T, rows []spatialkeyword.Object, words []string, batch, inserted backend) {
	m := &diffModel{deleted: make(map[uint64]bool)}
	add := func(p []float64, text string) {
		t.Helper()
		for _, e := range []backend{batch, inserted} {
			id, err := e.Add(p, text)
			if err != nil {
				t.Fatal(err)
			}
			if id != uint64(len(m.rows)) {
				t.Fatalf("Add assigned ID %d, want %d", id, len(m.rows))
			}
		}
		m.rows = append(m.rows, spatialkeyword.Object{ID: uint64(len(m.rows)), Point: p, Text: text})
		if err := inserted.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range rows {
		add(o.Point, o.Text)
	}
	rng := rand.New(rand.NewSource(33))
	compareEngines(t, rng, words, m, batch, inserted)

	// Mutate both through the one-at-a-time paths and compare again.
	for i := 0; i < 60; i++ {
		src := rows[rng.Intn(len(rows))]
		add([]float64{src.Point[0] + rng.NormFloat64(), src.Point[1] + rng.NormFloat64()}, src.Text)
	}
	for i := 0; i < 60; i++ {
		id := uint64(rng.Intn(len(m.rows)))
		if m.deleted[id] {
			continue
		}
		for _, e := range []backend{batch, inserted} {
			if err := e.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		m.deleted[id] = true
	}
	compareEngines(t, rng, words, m, batch, inserted)
}

// compareEngines runs seeded queries of every kind on both engines and the
// model.
func compareEngines(t *testing.T, rng *rand.Rand, words []string, m *diffModel, batch, inserted backend) {
	t.Helper()
	cats := []*skql.Catalog{skql.NewCatalog(batch), skql.NewCatalog(inserted)}
	engines := []backend{batch, inserted}
	// One keyword from the most frequent 2 % and one from the next 18 %,
	// the topk_restaurants mix, or a single frequent one.
	frequent, mid := words[:len(words)/50+1], words[len(words)/50+1:len(words)/5]
	var found [3]int // queries with a non-empty top-k, ranked and area answer
	for q := 0; q < 24; q++ {
		o := m.rows[rng.Intn(len(m.rows))]
		p := []float64{o.Point[0] + rng.NormFloat64()*20, o.Point[1] + rng.NormFloat64()*20}
		kws := []string{frequent[rng.Intn(len(frequent))]}
		if q%3 != 0 {
			kws = append(kws, mid[rng.Intn(len(mid))])
		}
		lo := []float64{p[0] - 600, p[1] - 600}
		hi := []float64{p[0] + 600, p[1] + 600}
		k := 1 + rng.Intn(20)

		wantTop := m.topK(k, p, kws)
		wantRanked := m.ranked(batch.Corpus(), k, p, kws, false)
		wantRankedAll := m.ranked(batch.Corpus(), k, p, kws, true)
		wantWithin := m.within(lo, hi, kws[:1])
		for i, n := range []int{len(wantTop), len(wantRankedAll), len(wantWithin)} {
			if n > 0 {
				found[i]++
			}
		}
		match := fmt.Sprintf("MATCH %s", kws[0])
		if len(kws) > 1 {
			match += " AND " + kws[1]
		}
		statements := []string{
			fmt.Sprintf("SELECT TOP %d NEAR (%v, %v) %s", k, p[0], p[1], match),
			fmt.Sprintf("SELECT RANKED %d NEAR (%v, %v) %s", k, p[0], p[1], match),
			fmt.Sprintf("SELECT ALL WITHIN rect(%v, %v, %v, %v) MATCH %s", lo[0], lo[1], hi[0], hi[1], kws[0]),
			fmt.Sprintf("SELECT COUNT WITHIN rect(%v, %v, %v, %v) MATCH %s", lo[0], lo[1], hi[0], hi[1], kws[0]),
		}
		var answers [2][]string
		for i, e := range engines {
			top, err := e.TopK(k, p, kws...)
			if err != nil {
				t.Fatal(err)
			}
			if got := ids(top); !reflect.DeepEqual(got, wantTop) {
				t.Fatalf("engine %d TopK(%d, %v, %v) = %v, brute force %v", i, k, p, kws, got, wantTop)
			}
			ranked, err := e.TopKRanked(k, p, kws...)
			if err != nil {
				t.Fatal(err)
			}
			if got := rankedIDs(ranked); !reflect.DeepEqual(got, wantRanked) {
				t.Fatalf("engine %d TopKRanked(%d, %v, %v) = %v, brute force %v", i, k, p, kws, got, wantRanked)
			}
			within, _, err := e.WithinArea(lo, hi, kws[0])
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedIDs(within); !reflect.DeepEqual(got, wantWithin) {
				t.Fatalf("engine %d WithinArea(%v, %v, %s) = %v, brute force %v", i, lo, hi, kws[0], got, wantWithin)
			}
			for _, stmt := range statements {
				parsed, err := skql.Parse(stmt)
				if err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
				rs, err := cats[i].Run(parsed)
				if err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
				answers[i] = append(answers[i], fmt.Sprint(ids(rs.Results), rankedIDs(rs.Ranked), rs.Count))
			}
		}
		if !reflect.DeepEqual(answers[0], answers[1]) {
			t.Fatalf("SKQL answers differ:\nbatch-built:  %v\ninsert-built: %v", answers[0], answers[1])
		}
		for i, want := range []string{
			fmt.Sprint(wantTop, []uint64{}, len(wantTop)),
			fmt.Sprint([]uint64{}, wantRankedAll, len(wantRankedAll)),
			fmt.Sprint(wantWithin, []uint64{}, len(wantWithin)),
		} {
			if answers[0][i] != want {
				t.Fatalf("%s = %s, brute force %s", statements[i], answers[0][i], want)
			}
		}
	}
	if found[0] == 0 || found[1] == 0 || found[2] == 0 {
		t.Fatalf("queries with answers (top-k, conjunctive ranked, area): %v; every kind needs some", found)
	}
}
