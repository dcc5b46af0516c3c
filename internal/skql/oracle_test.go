package skql

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/repl"
	"spatialkeyword/internal/shard"
)

// genText builds object texts with controlled document frequencies:
// "base" everywhere, "com*" in ~80% of docs, "mid*" in ~10%, and each
// "rare*" in exactly two docs.
func genText(rng *rand.Rand, i, n int) string {
	words := []string{"base"}
	for c := 0; c < 2; c++ {
		if rng.Float64() < 0.8 {
			words = append(words, fmt.Sprintf("com%d", c))
		}
	}
	for m := 0; m < 4; m++ {
		if rng.Float64() < 0.1 {
			words = append(words, fmt.Sprintf("mid%d", m))
		}
	}
	// rare words: rare<j> lives in docs 2j and 2j+1 (when in range)
	if i/2 < 8 {
		words = append(words, fmt.Sprintf("rare%d", i/2))
	}
	return strings.Join(words, " ")
}

// genPoint draws continuous coordinates so distance ties cannot occur.
func genPoint(rng *rand.Rand) []float64 {
	return []float64{rng.Float64() * 100, rng.Float64() * 100}
}

// termSet is the oracle's term model: a set over the analyzer's Unique,
// built from Tokenize, where the executor's filter counts with the scan
// kernels on the plain pipeline.
func termSet(words []string) map[string]bool {
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}

// mixCase spells word as a document might: as is, capitalized, or in
// capitals — the capitals sometimes written with U+212A KELVIN SIGN for K
// and U+0130 for I, which lower-case to ASCII k and i — or run into a
// non-ASCII word across a non-ASCII separator.
func mixCase(rng *rand.Rand, word string) string {
	switch rng.Intn(5) {
	case 0:
		return word
	case 1:
		return strings.ToUpper(word[:1]) + word[1:]
	case 2:
		return strings.ToUpper(word)
	case 3:
		return strings.NewReplacer("K", "\u212A", "I", "\u0130").Replace(strings.ToUpper(word))
	default:
		return word + "\u00b7Zürich"
	}
}

// inflect spells word as a row for the stemming and stopword pipeline
// might hold it: as is, as a plural (in capitals or not), or after a
// stopword. Every spelling analyzes to the word's own term.
func inflect(rng *rand.Rand, word string) string {
	switch rng.Intn(4) {
	case 0:
		return word
	case 1:
		return word + "s"
	case 2:
		return strings.ToUpper(word) + "S"
	default:
		return "the " + word
	}
}

// oracleMatch answers a query by brute force over the target: read
// every live object by ID, evaluate the boolean tree on its analyzed term
// set, and apply the projection semantics directly.
type oracleRow struct {
	obj  spatialkeyword.Object
	dist float64
}

func oracleRows(t *testing.T, c *Catalog, q *Query) []oracleRow {
	t.Helper()
	var tree Expr
	if q.Match != nil {
		var err error
		tree, err = normalizeTree(q.Match, c.t.Corpus().Analyzer)
		if err != nil {
			t.Fatalf("normalizeTree: %v", err)
		}
	}
	var near geo.Point
	if q.Near != nil {
		near = geo.NewPoint(q.Near...)
	}
	var rect geo.Rect
	if q.Within != nil {
		rect = geo.NewRect(geo.NewPoint(q.Within.Lo[:]...), geo.NewPoint(q.Within.Hi[:]...))
	}
	// The oracle's own reads are not the plan's: it reads past a getLog.
	tgt := c.t
	if g, ok := tgt.(*getLog); ok {
		tgt = g.Target
	}
	var rows []oracleRow
	for id := uint64(0); id < uint64(tgt.NumObjects()); id++ {
		o, err := tgt.Get(id)
		if gone(err) {
			continue // deleted, or reserved and never stored
		}
		if err != nil {
			t.Fatalf("oracle get %d: %v", id, err)
		}
		set := termSet(c.t.Corpus().Analyzer.Unique(o.Text))
		if tree != nil && !evalExpr(tree, func(w string) bool { return set[w] }) {
			continue
		}
		pt := geo.NewPoint(o.Point...)
		switch q.Proj {
		case ProjAll, ProjCount:
			if !rect.ContainsPoint(pt) {
				continue
			}
			rows = append(rows, oracleRow{obj: o})
		default: // ProjTop
			if q.Near != nil && q.Within != nil && !rect.ContainsPoint(pt) {
				continue
			}
			var d float64
			if q.Near != nil {
				d = near.Dist(pt)
			} else {
				d = rect.MinDist(pt)
			}
			rows = append(rows, oracleRow{obj: o, dist: d})
		}
	}
	switch q.Proj {
	case ProjAll, ProjCount:
		sort.Slice(rows, func(i, j int) bool { return rows[i].obj.ID < rows[j].obj.ID })
	default:
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].dist != rows[j].dist {
				return rows[i].dist < rows[j].dist
			}
			return rows[i].obj.ID < rows[j].obj.ID
		})
		if q.K > 0 && len(rows) > q.K {
			rows = rows[:q.K]
		}
	}
	return rows
}

// checkResults compares executed results to the oracle byte-exactly:
// SKQL's TOP semantics are deterministic (distance order, ties at the
// k-th distance broken by smallest ID), so order, IDs, and distances
// must all match — including for TOP ... WITHIN alone, where every
// object inside the rect ties at distance zero.
func checkResults(t *testing.T, label string, q *Query, got []spatialkeyword.Result, want []oracleRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, oracle %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Object.ID != want[i].obj.ID {
			t.Fatalf("%s: result %d ID = %d, oracle %d", label, i, got[i].Object.ID, want[i].obj.ID)
		}
		wd := want[i].dist
		if q.Proj == ProjAll {
			wd = 0
		}
		if got[i].Dist != wd {
			t.Fatalf("%s: result %d dist = %v, oracle %v", label, i, got[i].Dist, wd)
		}
	}
}

// runOracleSuite drives the full randomized suite against one target.
func runOracleSuite(t *testing.T, c *Catalog, rng *rand.Rand) {
	t.Helper()
	matches := []string{
		``,
		`MATCH "rare0"`,
		`MATCH "com0"`,
		`MATCH "base"`,
		`MATCH "nosuchword"`,
		`MATCH "mid0" AND "com0"`,
		`MATCH "rare1" OR "rare2"`,
		`MATCH "com0" AND NOT "mid1"`,
		`MATCH NOT "com0"`,
		`MATCH ("rare3" AND "com1") OR ("mid2" AND NOT "com0")`,
		`MATCH "mid0" OR ("com1" AND NOT "rare4")`,
		`MATCH "rare5" AND "rare5"`,
		`MATCH "com0" AND NOT "com0"`,
	}
	for qi, m := range matches {
		p := genPoint(rng)
		lo := genPoint(rng)
		hi := []float64{lo[0] + 30, lo[1] + 30}
		k := 1 + rng.Intn(9)
		forms := []string{
			fmt.Sprintf("SELECT TOP %d NEAR (%v, %v) %s", k, p[0], p[1], m),
			fmt.Sprintf("SELECT TOP %d WITHIN rect(%v, %v, %v, %v) %s", k, lo[0], lo[1], hi[0], hi[1], m),
			fmt.Sprintf("SELECT TOP %d NEAR (%v, %v) WITHIN rect(%v, %v, %v, %v) %s", k, p[0], p[1], lo[0], lo[1], hi[0], hi[1], m),
			fmt.Sprintf("SELECT ALL WITHIN rect(%v, %v, %v, %v) %s", lo[0], lo[1], hi[0], hi[1], m),
			fmt.Sprintf("SELECT COUNT WITHIN rect(%v, %v, %v, %v) %s", lo[0], lo[1], hi[0], hi[1], m),
		}
		for fi, src := range forms {
			q, err := Parse(src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", src, err)
			}
			want := oracleRows(t, c, q)
			for _, force := range []string{"", " USING ir2", " USING iio", " USING rtree"} {
				fq, err := Parse(src + force)
				if err != nil {
					t.Fatalf("Parse(%q): %v", src+force, err)
				}
				rs, err := c.Run(fq)
				if err != nil {
					if force == " USING iio" && strings.Contains(err.Error(), "USING iio requires") {
						continue // iio genuinely cannot run keyword-free plans
					}
					t.Fatalf("Run(%q): %v", src+force, err)
				}
				label := fmt.Sprintf("q%d form%d%s", qi, fi, force)
				if q.Proj == ProjCount {
					if rs.Count != len(want) {
						t.Fatalf("%s: count = %d, oracle %d", label, rs.Count, len(want))
					}
					continue
				}
				checkResults(t, label, q, rs.Results, want)
			}
			// EXPLAIN ANALYZE executes too and must agree.
			aq, err := Parse("EXPLAIN ANALYZE " + src)
			if err != nil {
				t.Fatalf("Parse explain: %v", err)
			}
			rs, err := c.Run(aq)
			if err != nil {
				t.Fatalf("Run(EXPLAIN ANALYZE %q): %v", src, err)
			}
			if len(rs.Explain) == 0 {
				t.Fatalf("EXPLAIN ANALYZE produced no output for %q", src)
			}
			if q.Proj != ProjCount {
				checkResults(t, fmt.Sprintf("q%d form%d analyze", qi, fi), q, rs.Results, want)
			}
		}
	}
}

// runRankedSuite checks RANKED projections against the target's own
// TopKRanked as the oracle: fetch everything, filter by the boolean
// tree, truncate to k.
func runRankedSuite(t *testing.T, c *Catalog, rng *rand.Rand) {
	t.Helper()
	cases := []struct {
		match string
		terms []string
	}{
		{`MATCH "com0"`, []string{"com0"}},
		{`MATCH "com0" OR "mid1"`, []string{"com0", "mid1"}},
		{`MATCH ("com0" OR "mid1") AND NOT "rare0"`, []string{"com0", "mid1"}},
	}
	n := c.t.NumObjects()
	for ci, tc := range cases {
		p := genPoint(rng)
		k := 2 + rng.Intn(5)
		src := fmt.Sprintf("SELECT RANKED %d NEAR (%v, %v) %s", k, p[0], p[1], tc.match)
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		rs, err := c.Run(q)
		if err != nil {
			t.Fatalf("Run(%q): %v", src, err)
		}
		all, err := c.t.TopKRanked(n+1, p, tc.terms...)
		if err != nil {
			t.Fatalf("TopKRanked oracle: %v", err)
		}
		tree, err := normalizeTree(q.Match, c.t.Corpus().Analyzer)
		if err != nil {
			t.Fatalf("normalizeTree: %v", err)
		}
		var want []spatialkeyword.RankedResult
		for _, r := range all {
			set := termSet(c.t.Corpus().Analyzer.Unique(r.Object.Text))
			if !evalExpr(tree, func(w string) bool { return set[w] }) {
				continue
			}
			want = append(want, r)
			if len(want) == k {
				break
			}
		}
		if len(rs.Ranked) != len(want) {
			t.Fatalf("ranked case %d: got %d results, oracle %d", ci, len(rs.Ranked), len(want))
		}
		for i := range want {
			if rs.Ranked[i].Object.ID != want[i].Object.ID || rs.Ranked[i].Score != want[i].Score {
				t.Fatalf("ranked case %d result %d: got ID %d score %v, oracle ID %d score %v",
					ci, i, rs.Ranked[i].Object.ID, rs.Ranked[i].Score, want[i].Object.ID, want[i].Score)
			}
		}
	}
}

func fillTarget(t testing.TB, add func(point []float64, text string) (uint64, error), rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := add(genPoint(rng), genText(rng, i, n)); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
}

// TestOracleEngine runs the suites on a single engine over three inputs:
// the generator's rows on the plain pipeline, the same words inflected and
// among stopwords on the stemming and stopword pipeline, and the same words
// in mixed case with non-ASCII letters on the plain pipeline — rows the
// residual filter must normalize as the analyzer does.
func TestOracleEngine(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   spatialkeyword.Config
		spell func(*rand.Rand, string) string
	}{
		{"plain", spatialkeyword.Config{}, nil},
		{"stemming+stopwords", spatialkeyword.Config{Stemming: true, RemoveStopwords: true}, inflect},
		{"plain/mixed-text", spatialkeyword.Config{}, mixCase},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			e, err := spatialkeyword.NewEngine(tc.cfg)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			add := e.Add
			if tc.spell != nil {
				add = func(point []float64, text string) (uint64, error) {
					words := strings.Fields(text)
					for i, w := range words {
						words[i] = tc.spell(rng, w)
					}
					return e.Add(point, strings.Join(words, " "))
				}
			}
			fillTarget(t, add, rng, 150)
			if err := e.Delete(5); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if err := e.Delete(60); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			checkRowTable(t, e)
			c := NewCatalog(e)
			runOracleSuite(t, c, rng)
			runRankedSuite(t, c, rng)
		})
	}
}

// gone reports whether a Get failed because the row is not live: it was
// deleted, or was never stored.
func gone(err error) bool {
	return errors.Is(err, spatialkeyword.ErrDeleted) || errors.Is(err, spatialkeyword.ErrUnknownID)
}

// checkRowTable holds tgt's row table to its rows, which the sidecar fills
// from in place of analyzing them: Rows, asked for every ID in one call,
// gives each live row once, with the row's point and, as a set, the
// analyzer's distinct terms of its text, each once; it passes over the
// rows Get cannot return.
func checkRowTable(t *testing.T, tgt Target) {
	t.Helper()
	an := tgt.Corpus().Analyzer
	ids := make([]uint64, tgt.NumObjects())
	for i := range ids {
		ids[i] = uint64(i)
	}
	type row struct {
		point []float64
		terms map[string]bool
		n     int
	}
	rows := map[uint64]row{}
	err := tgt.Rows(ids, []string{}, func(i int, point []float64, terms []string) {
		if _, dup := rows[ids[i]]; dup {
			t.Errorf("Rows gave row %d twice", ids[i])
		}
		rows[ids[i]] = row{slices.Clone(point), termSet(terms), len(terms)}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		o, err := tgt.Get(id)
		r, live := rows[id]
		if gone(err) && !live {
			continue
		}
		if err != nil || !live {
			t.Fatalf("row %d: Get %v, Rows gave it: %v", id, err, live)
		}
		want := termSet(an.Unique(o.Text))
		if r.n != len(r.terms) || !maps.Equal(r.terms, want) {
			t.Fatalf("row %d %q: row table terms %v (%d), want the analyzer's %v", id, o.Text, r.terms, r.n, want)
		}
		if !slices.Equal(r.point, o.Point) {
			t.Fatalf("row %d: row table point %v, want %v", id, r.point, o.Point)
		}
	}
}

func TestOracleShardedEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s, err := shard.New(spatialkeyword.Config{}, shard.Options{Shards: 3})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	fillTarget(t, s.Add, rng, 120)
	if err := s.Delete(9); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	checkRowTable(t, s)
	c := NewCatalog(s)
	runOracleSuite(t, c, rng)
	runRankedSuite(t, c, rng)
}

func TestOracleReplicatedFollower(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ldir, fdir := t.TempDir(), t.TempDir()
	e, err := shard.NewDurable(spatialkeyword.Config{WAL: true}, ldir, shard.Options{})
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	defer e.Close() //nolint:errcheck // test teardown
	l := repl.NewLeader(e)
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	fillTarget(t, e.Add, rng, 80)
	if err := e.Delete(4); err != nil {
		t.Fatalf("Delete: %v", err)
	}

	f, err := repl.OpenFollower(fdir, srv.URL, repl.Options{})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	if err := f.WaitFor(l.PositionToken(), 10*time.Second); err != nil {
		t.Fatalf("WaitFor: %v", err)
	}

	checkRowTable(t, f)
	c := NewCatalog(f)
	runOracleSuite(t, c, rng)
	runRankedSuite(t, c, rng)
}

// TestRankedTiesBreakLikeTopKRanked: SELECT RANKED answers exactly what the
// target's TopKRanked (/ranked) answers when rows tie on score — ties at the
// k-th score go to the smallest ID, not to whichever the stream delivers
// first. Four identical rows at distance 1 from the query point, on 1–4
// shards.
func TestRankedTiesBreakLikeTopKRanked(t *testing.T) {
	for shards := 1; shards <= 4; shards++ {
		s, err := shard.New(spatialkeyword.Config{}, shard.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range [][]float64{{1, 0}, {0, 1}, {-1, 0}, {0, -1}, {3, 4}} {
			if _, err := s.Add(p, "cafe espresso"); err != nil {
				t.Fatal(err)
			}
		}
		c := NewCatalog(s)
		for k := 1; k <= 5; k++ {
			want, err := s.TopKRanked(k, []float64{0, 0}, "cafe")
			if err != nil {
				t.Fatal(err)
			}
			q, err := Parse(fmt.Sprintf("SELECT RANKED %d NEAR (0, 0) MATCH cafe", k))
			if err != nil {
				t.Fatal(err)
			}
			rs, err := c.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			var got, wantIDs []uint64
			for i := range rs.Ranked {
				got = append(got, rs.Ranked[i].Object.ID)
			}
			for i := range want {
				wantIDs = append(wantIDs, want[i].Object.ID)
			}
			if fmt.Sprint(got) != fmt.Sprint(wantIDs) {
				t.Errorf("%d shards, k=%d: RANKED gave %v, TopKRanked %v", shards, k, got, wantIDs)
			}
		}
	}
}
