package skql

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/repl"
	"spatialkeyword/internal/shard"
)

// getLog is a target that records the IDs read through Get.
type getLog struct {
	Target
	ids []uint64
}

func (g *getLog) Get(id uint64) (spatialkeyword.Object, error) {
	g.ids = append(g.ids, id)
	return g.Target.Get(id)
}

// runIIOReads pins which rows the IIO path reads, not only what it answers:
// a TOP reads its candidates in (distance, ID) order until k pass the
// residual filter, and a COUNT WITHIN reads only the candidates whose point
// lies in the rect. The conjunction has far more than k candidates; deletes
// and adds land after the index is first filled, and deletes after its last
// catch-up, which only the row table knows of.
func runIIOReads(t *testing.T, b indexBackend, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const initial, later, k = 120, 40, 5
	var ids []uint64
	add := func(i int) {
		id, err := b.add(genPoint(rng), genText(rng, i, initial+later))
		if err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < initial; i++ {
		add(i)
	}
	// The order's edges at (20, 20): a row on the point itself, deleted
	// after the index last changed, so the nearest candidate is a dead one;
	// a row at 0.5; four at exactly 1, so a TOP 3 there cuts through a tie.
	var edge []uint64
	for _, pt := range [][]float64{{20, 20}, {20, 20.5}, {20, 21}, {20, 19}, {21, 20}, {19, 20}} {
		id, err := b.add(pt, "base com0 tie")
		if err != nil {
			t.Fatalf("add %v: %v", pt, err)
		}
		edge = append(edge, id)
	}
	dead := edge[0]
	if err := b.settle(); err != nil {
		t.Fatalf("settle: %v", err)
	}
	log := &getLog{Target: b.target}
	c := NewCatalog(log)
	if err := c.EnsureIndex(); err != nil {
		t.Fatal(err)
	}
	for i := initial; i < initial+later; i++ {
		add(i)
	}
	for _, i := range []int{3, 17, 58, 99, initial + 2, initial + 21} {
		if err := b.del(ids[i]); err != nil {
			t.Fatalf("delete %d: %v", ids[i], err)
		}
	}
	if err := b.settle(); err != nil {
		t.Fatalf("settle: %v", err)
	}
	if err := c.EnsureIndex(); err != nil {
		t.Fatal(err)
	}
	// A delete after the last catch-up: no fold has dropped the row from
	// the posting lists, so it stays a candidate the executor must skip.
	if err := b.del(dead); err != nil {
		t.Fatalf("delete %d: %v", dead, err)
	}
	if err := b.settle(); err != nil {
		t.Fatalf("settle: %v", err)
	}
	if err := c.EnsureIndex(); err != nil {
		t.Fatal(err)
	}
	if c.IndexStats().Refreshes != 2 {
		t.Fatalf("the index refreshed %d times, want 2: the delete must not reach it", c.IndexStats().Refreshes)
	}

	// runOps runs src, which must plan ops operators that together report
	// the rows read.
	runOps := func(src string, ops int) (*ResultSet, *Query) {
		t.Helper()
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		log.ids = nil
		rs, err := c.Run(q)
		if err != nil {
			t.Fatalf("Run(%q): %v", src, err)
		}
		loaded := 0
		for _, a := range rs.Actuals {
			loaded += a.ObjectsLoaded
		}
		if len(rs.Actuals) != ops || loaded != len(log.ids) {
			t.Fatalf("%s: actuals %+v, want %d operators reporting the %d rows read", src, rs.Actuals, ops, len(log.ids))
		}
		return rs, q
	}
	run := func(src string) (*ResultSet, *Query) {
		t.Helper()
		return runOps(src, 1)
	}
	rowIDs := func(rows []oracleRow) []uint64 {
		out := make([]uint64, len(rows))
		for i, r := range rows {
			out[i] = r.obj.ID
		}
		return out
	}

	for qi := 0; qi < 4; qi++ {
		p, lo := genPoint(rng), genPoint(rng)
		hi := []float64{lo[0] + 40, lo[1] + 40}
		near := fmt.Sprintf("NEAR (%v, %v)", p[0], p[1])
		// Every live candidate of the conjunction, in (distance, ID) order.
		all, err := Parse(fmt.Sprintf(`SELECT TOP 1000 %s MATCH "base" AND "com0"`, near))
		if err != nil {
			t.Fatal(err)
		}
		order := oracleRows(t, c, all)
		if len(order) < 10*k {
			t.Fatalf("the conjunction has %d live candidates, want far more than k=%d", len(order), k)
		}

		rs, q := run(fmt.Sprintf(`SELECT TOP %d %s MATCH "base" AND "com0" USING iio`, k, near))
		want := oracleRows(t, c, q)
		checkResults(t, "top", q, rs.Results, want)
		if !slices.Equal(log.ids, rowIDs(want)) {
			t.Errorf("q%d TOP %d read %v, want exactly the answer %v", qi, k, log.ids, rowIDs(want))
		}

		rs, q = run(fmt.Sprintf(`SELECT TOP %d %s MATCH "base" AND "com0" AND NOT "com1" USING iio`, k, near))
		checkResults(t, "top and not", q, rs.Results, oracleRows(t, c, q))
		var reads []uint64
		for accepted, i := 0, 0; accepted < k && i < len(order); i++ {
			o := order[i].obj
			reads = append(reads, o.ID)
			if !slices.Contains(c.t.Corpus().Analyzer.Unique(o.Text), "com1") {
				accepted++
			}
		}
		if !slices.Equal(log.ids, reads) {
			t.Errorf("q%d TOP %d AND NOT read %v, want the (distance, ID) prefix up to the %dth accept %v", qi, k, log.ids, k, reads)
		}

		rs, q = run(fmt.Sprintf(`SELECT COUNT WITHIN rect(%v, %v, %v, %v) MATCH "base" AND "com0" USING iio`, lo[0], lo[1], hi[0], hi[1]))
		inRect := oracleRows(t, c, q)
		if rs.Count != len(inRect) || !slices.Equal(log.ids, rowIDs(inRect)) {
			t.Errorf("q%d COUNT: %d, read %v; want %d and only the in-rect candidates %v", qi, rs.Count, log.ids, len(inRect), rowIDs(inRect))
		}
		if rs.Actuals[0].Candidates <= len(log.ids) {
			t.Errorf("q%d COUNT: %d candidates, %d read; the rect should have dropped some", qi, rs.Actuals[0].Candidates, len(log.ids))
		}
	}

	// The edges: the deleted nearest row is never read, the tie at the 3rd
	// row goes to the smallest IDs, and a DNF branch tests its NOT on the
	// rows it reads.
	all, err := Parse(`SELECT TOP 1000 NEAR (20, 20) MATCH "base" AND "com0"`)
	if err != nil {
		t.Fatal(err)
	}
	order := oracleRows(t, c, all)
	if len(order) < 4 || order[2].dist != order[3].dist {
		t.Fatalf("no tie straddles the 3rd of %d candidates at (20, 20)", len(order))
	}
	edges := []struct {
		src string
		ops int
	}{
		{`SELECT TOP 3 NEAR (20, 20) MATCH "base" AND "com0" USING iio`, 1},
		{`SELECT TOP 5 NEAR (20, 20) MATCH "mid0" OR ("base" AND "com0" AND NOT "com1") USING iio`, 2},
	}
	// checkEdges runs the edges and a COUNT, which reads the live candidates
	// in its rect in ID order, and fails if any reads a row of gone.
	checkEdges := func(when string, gone ...uint64) {
		t.Helper()
		for _, e := range edges {
			rs, q := runOps(e.src, e.ops)
			checkResults(t, e.src, q, rs.Results, oracleRows(t, c, q))
			if want := iioTopReads(t, c, q); !slices.Equal(log.ids, want) {
				t.Errorf("%s: %s read %v, want %v", when, e.src, log.ids, want)
			}
			for _, id := range gone {
				if slices.Contains(log.ids, id) {
					t.Errorf("%s: %s read the deleted row %d", when, e.src, id)
				}
			}
		}
		rs, q := run(`SELECT COUNT WITHIN rect(15, 15, 25, 25) MATCH "base" AND "com0" USING iio`)
		var reads []uint64
		for _, r := range oracleRows(t, c, all) {
			if pt := r.obj.Point; pt[0] >= 15 && pt[0] <= 25 && pt[1] >= 15 && pt[1] <= 25 {
				reads = append(reads, r.obj.ID)
			}
		}
		slices.Sort(reads)
		if want := oracleRows(t, c, q); rs.Count != len(want) || !slices.Equal(log.ids, reads) {
			t.Errorf("%s: COUNT at (20, 20) = %d, read %v; want %d and %v", when, rs.Count, log.ids, len(want), reads)
		}
	}
	checkEdges("after the catch-up", dead)

	// A row the TOP 3 answered, deleted after the catch-up: the row table
	// says so before any statement reads it, and no statement refreshes
	// the index for it.
	answered := order[1].obj.ID
	if err := b.del(answered); err != nil {
		t.Fatalf("delete %d: %v", answered, err)
	}
	if err := b.settle(); err != nil {
		t.Fatalf("settle: %v", err)
	}
	checkEdges("after a later delete", dead, answered)
	if c.IndexStats().Refreshes != 2 {
		t.Errorf("the index refreshed %d times, want 2: deletes must not reach it", c.IndexStats().Refreshes)
	}
}

// iioTopReads models the rows a forced-IIO TOP reads, operator by operator:
// the live candidates of the operator's conjunction in (distance, ID) order
// until op.K of them pass its NOT terms.
func iioTopReads(t *testing.T, c *Catalog, q *Query) []uint64 {
	t.Helper()
	p, err := c.BuildPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	an := c.t.Corpus().Analyzer
	var reads []uint64
	for _, op := range p.Ops {
		if op.Path != PathIIO || op.Residual != nil {
			t.Fatalf("operator %+v: want an IIO branch with its predicate in Conj and Neg", op)
		}
		match := `"` + strings.Join(op.Conj, `" AND "`) + `"`
		all, err := Parse(fmt.Sprintf(`SELECT TOP 100000 NEAR (%v, %v) MATCH %s`, q.Near[0], q.Near[1], match))
		if err != nil {
			t.Fatal(err)
		}
		accepted := 0
		for _, r := range oracleRows(t, c, all) {
			if accepted == op.K {
				break
			}
			reads = append(reads, r.obj.ID)
			set := termSet(an.Unique(r.obj.Text))
			if !slices.ContainsFunc(op.Neg, func(w string) bool { return set[w] }) {
				accepted++
			}
		}
	}
	return reads
}

func TestIIOReadsEngine(t *testing.T) {
	e, err := spatialkeyword.NewEngine(spatialkeyword.Config{})
	if err != nil {
		t.Fatal(err)
	}
	runIIOReads(t, indexBackend{
		add: e.Add, del: e.Delete, target: e,
		settle: func() error { return nil },
	}, 71)
}

func TestIIOReadsShardedEngine(t *testing.T) {
	s, err := shard.New(spatialkeyword.Config{}, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	runIIOReads(t, indexBackend{
		add: s.Add, del: s.Delete, target: s,
		settle: func() error { return nil },
	}, 72)
}

func TestIIOReadsFollower(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	e, err := shard.NewDurable(spatialkeyword.Config{WAL: true}, ldir, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close() //nolint:errcheck // test teardown
	l := repl.NewLeader(e)
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()
	f, err := repl.OpenFollower(fdir, srv.URL, repl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	runIIOReads(t, indexBackend{
		add: e.Add, del: e.Delete, target: f,
		settle: func() error { return f.WaitFor(l.PositionToken(), 10*time.Second) },
	}, 73)
}
