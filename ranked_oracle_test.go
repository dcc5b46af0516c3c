package spatialkeyword_test

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/repl"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/skql"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// rankedOracle is the general ranked query by brute force: every live row's
// tf-idf score against corpus statistics counted from every row ever added,
// discounted by distance as the engines discount it, best first, equal
// scores by smallest ID (FirstK's rule).
type rankedOracle struct {
	rows    []spatialkeyword.Object
	tf      []map[string]int // each row's pipeline term frequencies
	deleted map[uint64]bool
	scorer  *irscore.Scorer
}

func newRankedOracle(an *textutil.Analyzer, rows []spatialkeyword.Object, deleted []uint64) *rankedOracle {
	vocab := textutil.NewVocabulary()
	o := &rankedOracle{rows: rows, deleted: map[uint64]bool{}}
	for _, r := range rows {
		vocab.AddDocWith(an, r.Text)
		o.tf = append(o.tf, an.TermFreqs(r.Text))
	}
	o.scorer = irscore.NewScorer(vocab.NumDocs(), vocab.DocFreq).WithAnalyzer(an)
	for _, id := range deleted {
		o.deleted[id] = true
	}
	return o
}

// topK is the oracle's answer; all keeps only rows holding every keyword,
// as SKQL's MATCH a AND b does.
func (o *rankedOracle) topK(k int, p []float64, kws []string, all bool) []spatialkeyword.RankedResult {
	terms, idfs := o.scorer.QueryIDFs(kws)
	counts := make([]int, len(terms))
	q := geo.NewPoint(p...)
	var out []spatialkeyword.RankedResult
	for i, r := range o.rows {
		holdsAll := true
		for j, term := range terms {
			counts[j] = o.tf[i][term]
			holdsAll = holdsAll && counts[j] > 0
		}
		if o.deleted[r.ID] || all && !holdsAll {
			continue
		}
		ir := irscore.ScoreFromCounts(counts, idfs)
		if ir == 0 {
			continue
		}
		d := q.Dist(geo.NewPoint(r.Point...))
		out = append(out, spatialkeyword.RankedResult{Object: r, Dist: d, IRScore: ir, Score: irscore.Combine(d, ir)})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out[:min(k, len(out))]
}

// sameRanked reports the first difference between two ranked answers in
// ID, score, IR score or distance, or "" when they agree.
func sameRanked(got, want []spatialkeyword.RankedResult) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d: %v vs %v", len(got), len(want), rankedIDs(got), rankedIDs(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Object.ID != w.Object.ID || g.Score != w.Score || g.IRScore != w.IRScore || g.Dist != w.Dist {
			return fmt.Sprintf("result %d: id %d score %v (ir %v, dist %v), want id %d score %v (ir %v, dist %v)",
				i, g.Object.ID, g.Score, g.IRScore, g.Dist, w.Object.ID, w.Score, w.IRScore, w.Dist)
		}
	}
	return ""
}

// oracleRows is Hotels(0.002) — long rows, a quarter of whose words repeat
// two or three times — plus rows that repeat one query word up to past the
// term-frequency cap's saturation, so per-row caps from 1 to 255 all occur.
func oracleRows(t *testing.T) (rows []spatialkeyword.Object, frequent, mid []string) {
	t.Helper()
	store := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
	stats, err := dataset.Generate(dataset.Hotels(0.002), store)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
		rows = append(rows, spatialkeyword.Object{ID: uint64(o.ID), Point: o.Point, Text: o.Text})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Query words must survive stopword removal, or SKQL refuses them.
	var words []string
	stop := textutil.DefaultStopwords()
	for _, w := range stats.WordsByFreq() {
		if _, ok := stop[w]; !ok {
			words = append(words, w)
		}
	}
	frequent, mid = words[:len(words)/50], words[len(words)/50:len(words)/5]
	for i, reps := range []int{1, 2, 3, 5, 9, 40, 254, 255, 400} {
		src := rows[i*len(rows)/9]
		text := strings.Repeat(mid[i]+" ", reps) + frequent[i%len(frequent)] + " " + mid[i+1]
		rows = append(rows, spatialkeyword.Object{
			ID: uint64(len(rows)), Point: []float64{src.Point[0] + 3, src.Point[1] - 2}, Text: text,
		})
	}
	return rows, frequent, mid
}

// oracleDeletes is the rows every lifecycle arm deletes: every eleventh.
func oracleDeletes(rows []spatialkeyword.Object) []uint64 {
	var deletes []uint64
	for id := uint64(3); id < uint64(len(rows)); id += 11 {
		deletes = append(deletes, id)
	}
	return deletes
}

// lifecycleArm is one way rows reach a backend: open builds it under cfg.
type lifecycleArm struct {
	name string
	open func(t *testing.T, cfg spatialkeyword.Config) spatialkeyword.Reader
}

// queuedTail is how many of the last rows every arm adds after its tree is
// packed, so they wait in the engine's queued run (the repeated-word rows
// of oracleRows, tf up to 400).
const queuedTail = 9

// lifecycleArms returns every way rows reach a backend, each holding all of
// rows with deletes deleted: a single engine, 1 and 4 hash shards (each
// packed, then the last queuedTail rows queued), Save and reopen, a
// write-ahead log replayed onto a snapshot of the first half, and a
// follower that bootstrapped from such a snapshot and tailed the rest.
func lifecycleArms(rows []spatialkeyword.Object, deletes []uint64) []lifecycleArm {
	half := len(rows) / 2
	addRange := func(t *testing.T, e interface {
		Add([]float64, string) (uint64, error)
	}, from, to int) {
		t.Helper()
		for _, o := range rows[from:to] {
			if id, err := e.Add(o.Point, o.Text); err != nil || id != o.ID {
				t.Fatalf("Add row %d: id %d, %v", o.ID, id, err)
			}
		}
	}
	deleteAll := func(t *testing.T, e interface{ Delete(uint64) error }) {
		t.Helper()
		for _, id := range deletes {
			if err := e.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	loaded := func(t *testing.T, e interface {
		Add([]float64, string) (uint64, error)
		Delete(uint64) error
		Flush() error
	}) {
		addRange(t, e, 0, len(rows)-queuedTail)
		if err := e.Flush(); err != nil { // packs the tree
			t.Fatal(err)
		}
		addRange(t, e, len(rows)-queuedTail, len(rows))
		deleteAll(t, e)
	}
	return []lifecycleArm{
		{"engine", func(t *testing.T, cfg spatialkeyword.Config) spatialkeyword.Reader {
			e, err := spatialkeyword.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			loaded(t, e)
			return e
		}},
		{"1 shard", func(t *testing.T, cfg spatialkeyword.Config) spatialkeyword.Reader {
			s, err := shard.New(cfg, shard.Options{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			loaded(t, s)
			return s
		}},
		{"4 shards", func(t *testing.T, cfg spatialkeyword.Config) spatialkeyword.Reader {
			s, err := shard.New(cfg, shard.Options{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			loaded(t, s)
			return s
		}},
		{"save and reopen", func(t *testing.T, cfg spatialkeyword.Config) spatialkeyword.Reader {
			dir := t.TempDir()
			e, err := spatialkeyword.NewDurableEngine(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			loaded(t, e)
			if err := e.Save(); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := spatialkeyword.OpenEngine(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { re.Close() })
			return re
		}},
		{"wal replay onto a snapshot", func(t *testing.T, cfg spatialkeyword.Config) spatialkeyword.Reader {
			dir := t.TempDir()
			cfg.WAL = true
			e, err := spatialkeyword.NewDurableEngine(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			addRange(t, e, 0, half)
			if err := e.Save(); err != nil {
				t.Fatal(err)
			}
			addRange(t, e, half, len(rows))
			deleteAll(t, e)
			if err := e.Close(); err != nil { // no Save: the reopen replays the log
				t.Fatal(err)
			}
			re, err := spatialkeyword.OpenEngine(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { re.Close() })
			if got := re.WALInfo().ReplayedRecords; got != uint64(len(rows)-half+len(deletes)) {
				t.Fatalf("reopen replayed %d records, want %d", got, len(rows)-half+len(deletes))
			}
			return re
		}},
		{"follower", func(t *testing.T, cfg spatialkeyword.Config) spatialkeyword.Reader {
			ldir, fdir := t.TempDir(), t.TempDir()
			cfg.WAL = true
			single, err := spatialkeyword.NewDurableEngine(cfg, ldir)
			if err != nil {
				t.Fatal(err)
			}
			if err := single.Close(); err != nil {
				t.Fatal(err)
			}
			lead, err := shard.Open(ldir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { lead.Close() })
			l := repl.NewLeader(lead)
			srv := httptest.NewServer(l.Handler())
			t.Cleanup(srv.Close)
			// The follower bootstraps from a snapshot holding the first half
			// and tails the log for the rest.
			addRange(t, lead, 0, half)
			if err := lead.Save(); err != nil {
				t.Fatal(err)
			}
			f, err := repl.OpenFollower(fdir, srv.URL, repl.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			addRange(t, lead, half, len(rows))
			deleteAll(t, lead)
			if err := f.WaitFor(l.PositionToken(), 10*time.Second); err != nil {
				t.Fatal(err)
			}
			return f
		}},
	}
}

// TestRankedMatchesBruteForceEverywhere: the general ranked query gives the
// brute-force answer — the same IDs and the same scores, ties by smallest ID
// — on a single engine, on 1 and 4 hash shards, through SKQL RANKED on each
// of those, after Save and reopen, after a write-ahead log replayed onto a
// snapshot, and on a follower, on the plain and the stopwords+stemming
// pipelines. Each backend holds the rows with some deleted, and most hold
// rows in their queued run beside the packed tree. The ranked
// bound of an object counts its row's term-frequency cap, so this is the
// check that every way a row reaches an engine records an admissible cap.
func TestRankedMatchesBruteForceEverywhere(t *testing.T) {
	rows, frequent, mid := oracleRows(t)
	deletes := oracleDeletes(rows)
	arms := lifecycleArms(rows, deletes)

	queryPoints := [][]float64{}
	for i := 0; i < 6; i++ {
		queryPoints = append(queryPoints, rows[(2*i+1)*len(rows)/12].Point)
	}
	queryPoints = append(queryPoints, rows[len(rows)-3].Point) // beside the repeated-word rows
	var kwSets [][]string
	for i := 0; i < 4; i++ {
		kwSets = append(kwSets,
			[]string{mid[i]},
			[]string{frequent[i%len(frequent)], mid[i+1]},
			[]string{frequent[(i+1)%len(frequent)], mid[i*7+3], mid[i+2]},
		)
	}
	// The words repeated 254, 255 and 400 times, past the cap's saturation.
	kwSets = append(kwSets, []string{mid[8]}, []string{mid[7], frequent[0], mid[6]})

	type query struct {
		k   int
		p   []float64
		kws []string
	}
	var queries []query
	for _, p := range queryPoints {
		for _, kws := range kwSets {
			for _, k := range []int{1, 3, 10, 30} {
				queries = append(queries, query{k, p, kws})
			}
		}
	}
	// Each arm asks every third query (an odd stride, so every k is asked);
	// stemming every loaded row dominates the stemmed pipeline's run time,
	// so it asks every seventh. On 4 KB blocks the rows fill a few leaves,
	// whose summaries hold every word and so get no signature; on 512-byte
	// blocks the pack gives the leaf summaries a sized one (the arm named
	// sized).
	for _, pc := range []struct {
		cfg    spatialkeyword.Config
		stride int
		name   string
	}{
		{spatialkeyword.Config{SignatureBytes: 189}, 3, ""},
		{spatialkeyword.Config{SignatureBytes: 189, RemoveStopwords: true, Stemming: true}, 7, ""},
		{spatialkeyword.Config{SignatureBytes: 189, BlockSize: 512}, 5, "sized"},
	} {
		oracle := newRankedOracle(pc.cfg.Analyzer(), rows, deletes)
		name := pc.name
		if name == "" {
			name = fmt.Sprintf("stemming=%v", pc.cfg.Stemming)
		}
		for _, a := range arms {
			t.Run(a.name+"/"+name, func(t *testing.T) {
				r := a.open(t, pc.cfg)
				cat := skql.NewCatalog(r)
				for i := 0; i < len(queries); i += pc.stride {
					k, p, kws := queries[i].k, queries[i].p, queries[i].kws
					got, err := r.TopKRanked(k, p, kws...)
					if err != nil {
						t.Fatal(err)
					}
					if diff := sameRanked(got, oracle.topK(k, p, kws, false)); diff != "" {
						t.Fatalf("TopKRanked(%d, %v, %v): %s", k, p, kws, diff)
					}
					src := fmt.Sprintf("SELECT RANKED %d NEAR (%v, %v) MATCH %s", k, p[0], p[1], strings.Join(kws, " AND "))
					q, err := skql.Parse(src)
					if err != nil {
						t.Fatal(err)
					}
					rs, err := cat.Run(q)
					if err != nil {
						t.Fatalf("%s: %v", src, err)
					}
					if diff := sameRanked(rs.Ranked, oracle.topK(k, p, kws, true)); diff != "" {
						t.Fatalf("%s: %s", src, diff)
					}
				}
			})
		}
	}
}
