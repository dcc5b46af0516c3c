package spatialkeyword_test

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/skql"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// runBackend is a durable backend the run tests reopen and compare.
type runBackend interface {
	backend
	Save() error
	Close() error
}

// copyDir copies the files of src, recursively, into dst.
func copyDir(t *testing.T, dst, src string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// indexDigest hashes the working index file of every engine directory.
func indexDigest(t *testing.T, dirs []string) string {
	t.Helper()
	h := sha256.New()
	for _, d := range dirs {
		f, err := os.Open(filepath.Join(d, "index.db"))
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestQueuedRunLeavesTreeAlone starts from a saved, packed Restaurants
// engine — one, and 4 hash shards — and a byte-for-byte copy of it. On the
// first it runs add/delete pairs, each delete taking the add from five ops
// before (the mixed_rw_wal shape), fewer than a leaf's worth in all, and
// between them distance, area, range and ranked queries and SKQL
// statements. Some adds repeat a tree row's point and text, so run and tree
// rows tie, and some queries sit on such a point.
//   - Every answer is the brute-force one, ties to the smallest ID.
//   - The index files take no write: reads search the run in memory.
//   - A query no queued row holds the keywords of does the work it does on
//     the untouched copy, counter for counter (QueryStats, see sameWork); a
//     ranked one, on the single engine, scored against the first engine's
//     corpus.
//   - Once adds fill the run, it is indexed, and each tree holds every
//     invariant, with the rows still queued fewer than a leaf's worth.
func TestQueuedRunLeavesTreeAlone(t *testing.T) {
	store := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
	stats, err := dataset.Generate(dataset.Restaurants(0.01), store)
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
	words := stats.WordsByFreq()
	frequent, mid := words[:len(words)/50+1], words[len(words)/50+1:len(words)/5]
	cfg := spatialkeyword.Config{SignatureBytes: 64, WAL: true}
	for _, arm := range []struct {
		name   string
		create func(dir string) (runBackend, error)
		open   func(dir string) (runBackend, error)
		dirs   func(b runBackend, dir string) []string
	}{
		{"engine",
			func(dir string) (runBackend, error) { return spatialkeyword.NewDurableEngine(cfg, dir) },
			func(dir string) (runBackend, error) { return spatialkeyword.OpenEngine(dir) },
			func(_ runBackend, dir string) []string { return []string{dir} }},
		{"4 shards",
			func(dir string) (runBackend, error) { return shard.NewDurable(cfg, dir, shard.Options{Shards: 4}) },
			func(dir string) (runBackend, error) { return shard.Open(dir) },
			func(b runBackend, _ string) []string {
				s := b.(*shard.ShardedEngine)
				dirs := make([]string, s.NumShards())
				for i := range dirs {
					dirs[i] = s.ShardDir(i)
				}
				return dirs
			}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			dirA, dirB := t.TempDir(), t.TempDir()
			b, err := arm.create(dirA)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range rows {
				if _, err := b.Add(o.Point, o.Text); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Save(); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			copyDir(t, dirB, dirA)
			a, err := arm.open(dirA)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			untouched, err := arm.open(dirB)
			if err != nil {
				t.Fatal(err)
			}
			defer untouched.Close()
			dirs := arm.dirs(a, dirA)
			digest := indexDigest(t, dirs)
			leaf := spatialkeyword.LeafCapacity(cfg)

			m := &diffModel{rows: slices.Clone(rows), deleted: map[uint64]bool{}}
			var queued, deletes []uint64
			cat := skql.NewCatalog(a)
			rng := rand.New(rand.NewSource(51))
			add := func(p []float64, text string) {
				t.Helper()
				id, err := a.Add(p, text)
				if err != nil || id != uint64(len(m.rows)) {
					t.Fatalf("Add: id %d, %v; want %d", id, err, len(m.rows))
				}
				m.rows = append(m.rows, spatialkeyword.Object{ID: id, Point: p, Text: text})
				queued = append(queued, id)
			}
			// queuedHolds reports whether a live queued row holds every
			// keyword, or with any, one of them.
			queuedHolds := func(kws []string, any bool) bool {
				for _, id := range queued {
					if m.deleted[id] {
						continue
					}
					n := 0
					for _, w := range kws {
						if m.holds(m.rows[id], []string{w}) {
							n++
						}
					}
					if any && n > 0 || n == len(kws) {
						return true
					}
				}
				return false
			}
			var pinned, matched int
			const pairs = 40
			for i := 0; i < pairs; i++ {
				src := rows[rng.Intn(len(rows))]
				p := src.Point
				if i%2 == 1 {
					p = []float64{p[0] + rng.NormFloat64(), p[1] + rng.NormFloat64()}
				}
				add(p, src.Text) // even i: a duplicate of a tree row
				if i >= 5 {
					id := queued[i-5]
					if err := a.Delete(id); err != nil {
						t.Fatal(err)
					}
					m.deleted[id] = true
					deletes = append(deletes, id)
				}
				oracle := newRankedOracle(cfg.Analyzer(), m.rows, deletes)
				for q := 0; q < 3; q++ {
					at := m.rows[queued[rng.Intn(len(queued))]].Point
					if q == 2 {
						at = []float64{at[0] + rng.NormFloat64()*20, at[1] + rng.NormFloat64()*20}
					}
					kws := []string{frequent[rng.Intn(len(frequent))]}
					if q != 0 {
						kws = append(kws, mid[rng.Intn(len(mid))])
					}
					if q == 0 && rng.Intn(2) == 0 {
						kws = textutil.Tokenize(m.rows[queued[len(queued)-1]].Text)[:1]
					}
					k := 1 + rng.Intn(10)
					lo := []float64{at[0] - 300, at[1] - 300}
					hi := []float64{at[0] + 300, at[1] + 300}
					pin := !queuedHolds(kws, false)
					if pin {
						pinned++
					} else {
						matched++
					}
					// Distance-first, area-distance and range queries.
					streams := []struct {
						name string
						open func(b backend) (spatialkeyword.ResultStream, error)
						want []uint64
						n    int
					}{
						{"Search", func(b backend) (spatialkeyword.ResultStream, error) { return b.Search(at, kws...) }, m.topK(k, at, kws), k},
						{"SearchArea", func(b backend) (spatialkeyword.ResultStream, error) { return b.SearchArea(lo, hi, kws...) }, nil, k},
						{"WithinArea", nil, m.within(lo, hi, kws), 0},
					}
					for _, s := range streams {
						got, st := runStream(t, a, s.name, s.open, at, lo, hi, kws, s.n)
						if s.want != nil && !reflect.DeepEqual(ids(got), s.want) {
							t.Fatalf("pair %d: %s(%v, %v, k=%d) = %v, brute force %v", i, s.name, at, kws, k, ids(got), s.want)
						}
						if s.name == "WithinArea" && !reflect.DeepEqual(sortedIDs(got), s.want) {
							t.Fatalf("pair %d: WithinArea(%v, %v, %v) = %v, brute force %v", i, lo, hi, kws, sortedIDs(got), s.want)
						}
						if pin {
							_, ust := runStream(t, untouched, s.name, s.open, at, lo, hi, kws, s.n)
							if !sameWork(st, ust) {
								t.Fatalf("pair %d: %s(%v) with no queued match did other work than the untouched copy:\n got %+v\nwant %+v", i, s.name, kws, st, ust)
							}
						}
					}
					// Ranked.
					ranked, err := a.TopKRanked(k, at, kws...)
					if err != nil {
						t.Fatal(err)
					}
					if diff := sameRanked(ranked, oracle.topK(k, at, kws, false)); diff != "" {
						t.Fatalf("pair %d: TopKRanked(%v, %v): %s", i, at, kws, diff)
					}
					if e, ok := a.(*spatialkeyword.Engine); ok && !queuedHolds(kws, true) {
						cs := e.Corpus()
						_, st := rankedStats(t, func() (spatialkeyword.RankedStream, error) { return e.SearchRankedWith(cs, at, kws...) }, k)
						u := untouched.(*spatialkeyword.Engine)
						_, ust := rankedStats(t, func() (spatialkeyword.RankedStream, error) { return u.SearchRankedWith(cs, at, kws...) }, k)
						if !sameWork(st, ust) {
							t.Fatalf("pair %d: ranked %v with no queued match did other work than the untouched copy:\n got %+v\nwant %+v", i, kws, st, ust)
						}
					}
					// SKQL.
					match := "MATCH " + kws[0]
					if len(kws) > 1 {
						match += " AND " + kws[1]
					}
					for _, c := range []struct {
						stmt string
						want string
					}{
						{fmt.Sprintf("SELECT TOP %d NEAR (%v, %v) %s", k, at[0], at[1], match), fmt.Sprint(m.topK(k, at, kws))},
						{fmt.Sprintf("SELECT COUNT WITHIN rect(%v, %v, %v, %v) %s", lo[0], lo[1], hi[0], hi[1], match), fmt.Sprint(len(m.within(lo, hi, kws)))},
						{fmt.Sprintf("SELECT RANKED %d NEAR (%v, %v) %s", k, at[0], at[1], match), fmt.Sprint(rankedIDs(oracle.topK(k, at, kws, true)))},
					} {
						parsed, err := skql.Parse(c.stmt)
						if err != nil {
							t.Fatalf("%s: %v", c.stmt, err)
						}
						rs, err := cat.Run(parsed)
						if err != nil {
							t.Fatalf("%s: %v", c.stmt, err)
						}
						got := fmt.Sprint(ids(rs.Results))
						switch {
						case rs.Ranked != nil:
							got = fmt.Sprint(rankedIDs(rs.Ranked))
						case parsed.Proj == skql.ProjCount:
							got = fmt.Sprint(rs.Count)
						}
						if got != c.want {
							t.Fatalf("pair %d: %s = %s, brute force %s", i, c.stmt, got, c.want)
						}
					}
				}
			}
			if pinned == 0 || matched == 0 {
				t.Fatalf("%d queries with no queued match and %d with one; the test needs both", pinned, matched)
			}
			if got := indexDigest(t, dirs); got != digest {
				t.Fatal("the add/delete pairs wrote the index")
			}
			t.Logf("%d pairs: %d queries pinned to the untouched copy, %d answered from the run too", pairs, pinned, matched)

			// Fill every run: each shard takes about a quarter of the adds.
			for i := 0; i < 3*len(dirs)*leaf; i++ {
				src := rows[rng.Intn(len(rows))]
				add([]float64{src.Point[0] + rng.NormFloat64(), src.Point[1] + rng.NormFloat64()}, src.Text)
			}
			if indexDigest(t, dirs) == digest {
				t.Fatal("full runs left the index unwritten")
			}
			if e, ok := a.(*spatialkeyword.Engine); ok {
				spatialkeyword.CheckTree(t, e)
			} else {
				if err := a.Close(); err != nil { // no Save: reopen replays the log
					t.Fatal(err)
				}
				for _, d := range dirs {
					e, err := spatialkeyword.OpenEngine(d)
					if err != nil {
						t.Fatal(err)
					}
					spatialkeyword.CheckTree(t, e)
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if a, err = arm.open(dirA); err != nil {
					t.Fatal(err)
				}
			}
			at := rows[0].Point
			kws := []string{frequent[0]}
			got, err := a.TopK(10, at, kws...)
			if err != nil {
				t.Fatal(err)
			}
			if want := m.topK(10, at, kws); !reflect.DeepEqual(ids(got), want) {
				t.Fatalf("after the runs filled: TopK = %v, brute force %v", ids(got), want)
			}
		})
	}
}

// sameWork reports whether two queries did the same work: every counter
// equal, and as many blocks read. How those blocks split between random and
// sequential may differ: an add writes the object file (its open block, at
// the next read), and a device counts an access as sequential when it
// follows the block touched last, so the first row a query reads after an
// add can count the other way.
func sameWork(a, b spatialkeyword.QueryStats) bool {
	ab, bb := a.BlocksRandom+a.BlocksSequential, b.BlocksRandom+b.BlocksSequential
	a.BlocksRandom, a.BlocksSequential, b.BlocksRandom, b.BlocksSequential = 0, 0, 0, 0
	return a == b && ab == bb
}

// runStream runs one distance-first stream kind to its cut — the first n,
// or every result for the range query — and returns the results and the
// query's stats.
func runStream(t *testing.T, b backend, name string, open func(backend) (spatialkeyword.ResultStream, error), at, lo, hi []float64, kws []string, n int) ([]spatialkeyword.Result, spatialkeyword.QueryStats) {
	t.Helper()
	if name == "WithinArea" {
		res, st, err := b.WithinArea(lo, hi, kws...)
		if err != nil {
			t.Fatal(err)
		}
		return res, st
	}
	it, err := open(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spatialkeyword.FirstK(nil, it, n, nil)
	it.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res, it.Stats()
}

// rankedStats runs a ranked stream to its top-k cut and returns the results
// and the query's stats.
func rankedStats(t *testing.T, open func() (spatialkeyword.RankedStream, error), k int) ([]spatialkeyword.RankedResult, spatialkeyword.QueryStats) {
	t.Helper()
	it, err := open()
	if err != nil {
		t.Fatal(err)
	}
	res, err := spatialkeyword.FirstK(nil, it, k, nil)
	it.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res, it.Stats()
}
