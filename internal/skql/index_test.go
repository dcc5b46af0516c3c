package skql

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/repl"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/storage"
)

// indexBackend is one backend of the interleaved index program: where
// mutations go, what the catalog reads, and how to wait until the two
// agree (a follower lags its leader).
type indexBackend struct {
	add    func(point []float64, text string) (uint64, error)
	del    func(id uint64) error
	target Target
	settle func() error
}

// runIndexProgram is the seeded interleaved program every backend runs:
// adds, deletes and forced-IIO statements in TOP, COUNT WITHIN and area
// forms, each answer checked against a brute-force scan of the target.
// The index may be filled from empty exactly once; everything after has
// to arrive through catch-up and folds.
func runIndexProgram(t *testing.T, b indexBackend, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const initial, steps = 60, 160
	var live []uint64
	next := 0
	add := func() {
		// "fresh*" words first appear after the build, so they live in
		// the tail until a fold; "rare*" only exist in the built base.
		text := genText(rng, next, initial)
		if next >= initial {
			text += fmt.Sprintf(" fresh%d", next%4)
		}
		id, err := b.add(genPoint(rng), text)
		if err != nil {
			t.Fatalf("add %d: %v", next, err)
		}
		live = append(live, id)
		next++
	}
	for next < initial {
		add()
	}
	c := NewCatalog(b.target)

	matches := []string{
		`MATCH "fresh0"`,
		`MATCH "fresh1" AND "com0"`,
		`MATCH "fresh2" AND NOT "com1"`,
		`MATCH "rare1"`,
		`MATCH "base" AND "mid0"`,
		`MATCH "com0" AND "com1"`,
		`MATCH "base" AND ("fresh3" OR "rare2")`,
	}
	queries := 0
	for step := 0; step < steps; step++ {
		switch r := rng.Float64(); {
		case r < 0.45:
			add()
			continue
		case r < 0.60 && len(live) > 0:
			i := rng.Intn(len(live))
			if err := b.del(live[i]); err != nil {
				t.Fatalf("delete %d: %v", live[i], err)
			}
			live = append(live[:i], live[i+1:]...)
			continue
		}
		if err := b.settle(); err != nil {
			t.Fatalf("settle: %v", err)
		}
		m := matches[rng.Intn(len(matches))]
		p, lo := genPoint(rng), genPoint(rng)
		hi := []float64{lo[0] + 40, lo[1] + 40}
		k := 1 + rng.Intn(8)
		forms := []string{
			fmt.Sprintf("SELECT TOP %d NEAR (%v, %v) %s USING iio", k, p[0], p[1], m),
			fmt.Sprintf("SELECT TOP %d WITHIN rect(%v, %v, %v, %v) %s USING iio", k, lo[0], lo[1], hi[0], hi[1], m),
			fmt.Sprintf("SELECT ALL WITHIN rect(%v, %v, %v, %v) %s USING iio", lo[0], lo[1], hi[0], hi[1], m),
			fmt.Sprintf("SELECT COUNT WITHIN rect(%v, %v, %v, %v) %s USING iio", lo[0], lo[1], hi[0], hi[1], m),
		}
		src := forms[rng.Intn(len(forms))]
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		rs, err := c.Run(q)
		if err != nil {
			t.Fatalf("step %d Run(%q): %v", step, src, err)
		}
		want := oracleRows(t, c, q)
		label := fmt.Sprintf("step %d %s", step, src)
		if q.Proj == ProjCount {
			if rs.Count != len(want) {
				t.Fatalf("%s: count = %d, oracle %d", label, rs.Count, len(want))
			}
		} else {
			checkResults(t, label, q, rs.Results, want)
		}
		queries++
	}

	st := c.IndexStats()
	if st.FullBuilds != 1 {
		t.Errorf("index was filled from empty %d times over %d adds and %d queries, want 1", st.FullBuilds, next, queries)
	}
	if st.Folds == 0 || st.RowsIndexed <= initial {
		t.Errorf("stats %+v: want at least one fold and rows indexed beyond the initial %d", st, initial)
	}
}

func TestIndexProgramEngine(t *testing.T) {
	e, err := spatialkeyword.NewEngine(spatialkeyword.Config{})
	if err != nil {
		t.Fatal(err)
	}
	runIndexProgram(t, indexBackend{
		add: e.Add, del: e.Delete, target: e,
		settle: func() error { return nil },
	}, 21)
}

func TestIndexProgramShardedEngine(t *testing.T) {
	s, err := shard.New(spatialkeyword.Config{}, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	runIndexProgram(t, indexBackend{
		add: s.Add, del: s.Delete, target: s,
		settle: func() error { return nil },
	}, 22)
}

func TestIndexProgramFollower(t *testing.T) {
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
	runIndexProgram(t, indexBackend{
		add: e.Add, del: e.Delete, target: f,
		settle: func() error { return f.WaitFor(l.PositionToken(), 10*time.Second) },
	}, 23)
}

// TestIndexConcurrentAddsAndQueries runs writers and forced-IIO readers
// against one catalog (run under -race). A reader may miss an add it
// raced, but what it returns must be whole documents that match (a TOP
// reader's in distance order), and once the writers are done the answer
// is exact.
func TestIndexConcurrentAddsAndQueries(t *testing.T) {
	s, err := shard.New(spatialkeyword.Config{}, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	rng := rand.New(rand.NewSource(31))
	fillTarget(t, s.Add, rng, 40)
	c := NewCatalog(s)

	const writers, perWriter, readers = 2, 60, 3
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wrng := rand.New(rand.NewSource(int64(100 + w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := s.Add(genPoint(wrng), "base both left"); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
			}
		}()
	}
	// Readers alternate an area statement and a TOP NEAR one, which reads
	// the point column while catch-up appends to it.
	stmts := []string{
		`SELECT ALL WITHIN rect(-1, -1, 101, 101) MATCH "both" AND "left" USING iio`,
		`SELECT TOP 5 NEAR (50, 50) MATCH "both" AND "left" USING iio`,
	}
	var rwg sync.WaitGroup
	for r := 0; r < readers+1; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			q, err := Parse(stmts[r%len(stmts)])
			if err != nil {
				t.Errorf("Parse: %v", err)
				return
			}
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				rs, err := c.Run(q)
				if err != nil {
					t.Errorf("Run: %v", err)
					return
				}
				if rs.Count < last {
					t.Errorf("answer shrank from %d to %d rows with no deletes", last, rs.Count)
					return
				}
				last = rs.Count
				for i, res := range rs.Results {
					if !strings.Contains(res.Object.Text, "both left") {
						t.Errorf("object %d %q does not match", res.Object.ID, res.Object.Text)
						return
					}
					if q.Near == nil {
						continue
					}
					d := geo.NewPoint(q.Near...).Dist(res.Object.Point)
					if res.Dist != d || (i > 0 && rs.Results[i-1].Dist > d) {
						t.Errorf("TOP result %d: object %d at distance %v reported %v, out of order or wrong", i, res.Object.ID, d, res.Dist)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rwg.Wait()

	q, err := Parse(`SELECT COUNT WITHIN rect(-1, -1, 101, 101) MATCH "both" AND "left" USING iio`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Count != writers*perWriter {
		t.Errorf("count after writers finished = %d, want %d", rs.Count, writers*perWriter)
	}
	if st := c.IndexStats(); st.FullBuilds != 1 {
		t.Errorf("FullBuilds = %d, want 1", st.FullBuilds)
	}
}

// TestIndexCatchUpReadsNoRowUnderFault: while a shard's device fails
// reads, catch-up still indexes every new row, because it takes their terms
// from the row table and reads none; the statement fails at the first row
// it cannot read instead of answering from partial data, and once the fault
// clears the same catalog answers in full — without a rebuild or another
// catch-up.
func TestIndexCatchUpReadsNoRowUnderFault(t *testing.T) {
	s, err := shard.New(spatialkeyword.Config{}, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	rng := rand.New(rand.NewSource(41))
	fillTarget(t, s.Add, rng, 50)
	c := NewCatalog(s)
	if err := c.EnsureIndex(); err != nil {
		t.Fatal(err)
	}

	var added []uint64
	for i := 0; i < 12; i++ {
		id, err := s.Add(genPoint(rng), "base latecomer")
		if err != nil {
			t.Fatal(err)
		}
		added = append(added, id)
	}
	failReads := func(op storage.Op, id storage.BlockID) error {
		if op == storage.OpRead {
			return &storage.FaultError{Kind: storage.KindReadError, Op: op, Block: id}
		}
		return nil
	}
	// Fail the shard that holds a row in the middle of the new ones.
	victim := added[5]
	faulted := -1
	for i := 0; i < 4 && faulted < 0; i++ {
		s.InjectShardFault(i, failReads)
		if _, err := s.Get(victim); err != nil {
			faulted = i
		} else {
			s.InjectShardFault(i, nil)
		}
	}
	if faulted < 0 {
		t.Fatal("no shard fault made the victim row unreadable")
	}

	before := c.IndexStats()
	q, err := Parse(`SELECT COUNT WITHIN rect(-1, -1, 101, 101) MATCH "latecomer" USING iio`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(q)
	if err == nil || !storage.IsIOFault(err) {
		t.Fatalf("Run with an unreadable row = %v, want the storage fault", err)
	}
	st := c.IndexStats()
	if got := st.RowsIndexed - before.RowsIndexed; got != uint64(len(added)) {
		t.Errorf("catch-up indexed %d rows under the fault, want all %d", got, len(added))
	}
	if err := c.EnsureIndex(); err != nil {
		t.Errorf("EnsureIndex under the fault: %v", err)
	}

	s.InjectShardFault(faulted, nil)
	rs, err := c.Run(q)
	if err != nil {
		t.Fatalf("Run after the fault cleared: %v", err)
	}
	if rs.Count != len(added) {
		t.Errorf("count after the fault cleared = %d, want all %d latecomers", rs.Count, len(added))
	}
	if got := c.IndexStats(); got != st {
		t.Errorf("stats after recovery %+v, want %+v: no rebuild and no catch-up", got, st)
	}
}

// swapTarget lets a test replace the engine behind a catalog, as a
// follower does when it re-bootstraps. Only the plain Target surface
// shows through, so plans run on the fallback paths.
type swapTarget struct{ Target }

// TestIndexRebuildsWhenTargetShrinks: an ID space that moved backwards
// belongs to a different engine, so the index is filled again from empty
// and answers for the new contents only.
func TestIndexRebuildsWhenTargetShrinks(t *testing.T) {
	build := func(seed int64, n int, extra string) *spatialkeyword.Engine {
		e, err := spatialkeyword.NewEngine(spatialkeyword.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			if _, err := e.Add(genPoint(rng), genText(rng, i, n)+extra); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	tgt := &swapTarget{build(51, 90, " elder")}
	c := NewCatalog(tgt)
	q, err := Parse(`SELECT ALL WITHIN rect(-1, -1, 101, 101) MATCH "base" AND "elder" USING iio`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Count != 90 {
		t.Fatalf("count on the first engine = %d, want 90", rs.Count)
	}

	tgt.Target = build(52, 30, " younger")
	rs, err = c.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Count != 0 {
		t.Errorf("stale postings survived the swap: %d rows match \"elder\"", rs.Count)
	}
	q2, err := Parse(`SELECT ALL WITHIN rect(-1, -1, 101, 101) MATCH "younger" USING iio`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err = c.Run(q2)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, "after shrink", q2, rs.Results, oracleRows(t, c, q2))
	if st := c.IndexStats(); st.FullBuilds != 2 || rs.Count != 30 {
		t.Errorf("after shrink: %d rows, stats %+v; want 30 rows and 2 full builds", rs.Count, st)
	}
}

// errTarget fails every Rows, as a follower does mid-resync.
type errTarget struct{ Target }

func (errTarget) Rows([]uint64, []string, func(int, []float64, []string)) error {
	return errors.New("resyncing")
}

// TestIndexBuildFailureIsRetried: a first fill that fails indexes nothing,
// and the next use fills the index.
func TestIndexBuildFailureIsRetried(t *testing.T) {
	e, err := spatialkeyword.NewEngine(spatialkeyword.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fillTarget(t, e.Add, rand.New(rand.NewSource(61)), 20)
	tgt := &swapTarget{errTarget{e}}
	c := NewCatalog(tgt)
	if err := c.EnsureIndex(); err == nil {
		t.Fatal("EnsureIndex succeeded with Rows failing")
	}
	if st := c.IndexStats(); st.FullBuilds != 1 || st.RowsIndexed != 0 {
		t.Errorf("a failed fill indexed rows: stats %+v", st)
	}
	tgt.Target = e
	if err := c.EnsureIndex(); err != nil {
		t.Fatal(err)
	}
	if st := c.IndexStats(); st.FullBuilds != 1 || st.RowsIndexed != 20 {
		t.Errorf("stats %+v, want 1 fill of 20 rows", st)
	}
}

// flakyTarget fails the first Rows call that asks for row bad. filled logs
// the rows of every call that asks for terms, as the fill does; the
// embedded getLog logs every Get.
type flakyTarget struct {
	getLog
	bad    uint64
	failed bool
	filled []uint64
}

func (f *flakyTarget) Rows(ids []uint64, terms []string, fn func(int, []float64, []string)) error {
	if terms != nil {
		f.filled = append(f.filled, ids...)
	}
	if slices.Contains(ids, f.bad) && !f.failed {
		f.failed = true
		return errors.New("transient")
	}
	return f.getLog.Rows(ids, terms, fn)
}

// TestSidecarFillResumes: a first fill that fails at row r keeps rows
// [0, r); the next use takes only rows [r, n) from the row table, neither
// fill reads a row, and the index then answers a forced-IIO TOP like a
// fresh catalog's.
func TestSidecarFillResumes(t *testing.T) {
	s, err := shard.New(spatialkeyword.Config{}, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	const n, r = 80, 37
	fillTarget(t, s.Add, rand.New(rand.NewSource(67)), n)
	if err := s.Delete(61); err != nil {
		t.Fatal(err)
	}
	tgt := &flakyTarget{getLog: getLog{Target: s}, bad: r}
	c := NewCatalog(tgt)
	if err := c.EnsureIndex(); err == nil {
		t.Fatalf("EnsureIndex succeeded with Rows failing at %d", r)
	}
	if st := c.IndexStats(); st.FullBuilds != 1 || st.RowsIndexed != r {
		t.Errorf("after the failed fill: stats %+v, want 1 fill of the %d rows before the fault", st, r)
	}
	tgt.filled = nil
	if err := c.EnsureIndex(); err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for id := uint64(r); id < n; id++ {
		want = append(want, id)
	}
	if !slices.Equal(tgt.filled, want) {
		t.Errorf("the resumed fill took rows %v, want only [%d, %d)", tgt.filled, r, n)
	}
	if len(tgt.ids) != 0 {
		t.Errorf("the fills read rows %v, want none", tgt.ids)
	}
	if st := c.IndexStats(); st.FullBuilds != 1 || st.RowsIndexed != n-1 {
		t.Errorf("after the resumed fill: stats %+v, want 1 fill of %d live rows", st, n-1)
	}

	q, err := Parse(`SELECT TOP 12 NEAR (40, 60) MATCH "base" AND "com0" USING iio`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewCatalog(s).Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, fresh.Results) {
		t.Errorf("resumed catalog answered %+v, a fresh one %+v", got.Results, fresh.Results)
	}
	checkResults(t, "resumed", q, got.Results, oracleRows(t, c, q))
}
