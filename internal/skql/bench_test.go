package skql

import (
	"fmt"
	"math/rand"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/storage"
)

var benchRows int

// BenchmarkCatalogCatchUp is the write-then-read cycle the sidecar index
// exists for: one add to a 12k-object engine, then one rare-keyword
// statement on the IIO path, which has to see an index that covers the
// new row. Before the index was appendable every iteration rebuilt it
// from a full scan.
func BenchmarkCatalogCatchUp(b *testing.B) {
	const objects = 12000
	e, err := spatialkeyword.NewEngine(spatialkeyword.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	text := func(i int) string {
		// 12 skewed words plus one that only two objects share.
		s := fmt.Sprintf("rare%d", i/2)
		for w := 0; w < 12; w++ {
			u := rng.Float64()
			s += fmt.Sprintf(" w%d", int(u*u*5000))
		}
		return s
	}
	for i := 0; i < objects; i++ {
		if _, err := e.Add(genPoint(rng), text(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	c := NewCatalog(e)
	if err := c.EnsureIndex(); err != nil {
		b.Fatal(err)
	}
	q, err := Parse(`SELECT TOP 10 NEAR (50, 50) MATCH "rare77" USING iio`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Add(genPoint(rng), text(objects+i)); err != nil {
			b.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
		rs, err := c.Run(q)
		if err != nil {
			b.Fatal(err)
		}
		benchRows += rs.Count
	}
}

// residualAccept returns the residual filter a TOP statement runs on each
// candidate — its MATCH needs Conj, Neg and a residual boolean tree — over
// a plain-pipeline engine, and a 15-word row that passes it.
func residualAccept(tb testing.TB) (func(spatialkeyword.Object) bool, spatialkeyword.Object) {
	e, err := spatialkeyword.NewEngine(spatialkeyword.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	fillTarget(tb, e.Add, rand.New(rand.NewSource(3)), 50)
	c := NewCatalog(e)
	q, err := Parse(`SELECT TOP 5 NEAR (50, 50) MATCH "pool" AND ("com0" OR "mid1") AND NOT "rare0" USING rtree`)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := c.BuildPlan(q)
	if err != nil {
		tb.Fatal(err)
	}
	if len(p.Ops) != 1 || p.Ops[0].Residual == nil {
		tb.Fatalf("plan has %d operators, want one with a residual tree", len(p.Ops))
	}
	row := spatialkeyword.Object{ID: 1, Point: []float64{50, 50},
		Text: "Wireless Internet, heated Pool and golf course nearby; base com0 Mid1 rare3 quiet garden view"}
	accept := c.acceptFn(p, &p.Ops[0])
	if !accept(row) {
		tb.Fatalf("the row %q fails the filter", row.Text)
	}
	return accept, row
}

// BenchmarkResidualFilter times SKQL's per-candidate term filter on one
// 15-word row.
func BenchmarkResidualFilter(b *testing.B) {
	accept, row := residualAccept(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !accept(row) {
			b.Fatal("row rejected")
		}
	}
}

// iioTopCatalog returns a catalog over a 4-shard target of 1,000 generated
// rows and a forced-IIO TOP 10 NEAR whose conjunction ("base" AND "mid0")
// has about a hundred candidates, run once so the sidecar index is filled.
func iioTopCatalog(tb testing.TB) (*Catalog, *Query) {
	s, err := shard.New(spatialkeyword.Config{}, shard.Options{Shards: 4})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() }) //nolint:errcheck // teardown
	fillTarget(tb, s.Add, rand.New(rand.NewSource(5)), 1000)
	return warmIIOTop(tb, NewCatalog(s), `SELECT TOP 10 NEAR (50, 50) MATCH "base" AND "mid0" USING iio`, 50)
}

// warmIIOTop parses src, runs it once on c and checks that its one
// operator has at least minCands candidates.
func warmIIOTop(tb testing.TB, c *Catalog, src string, minCands int) (*Catalog, *Query) {
	q, err := Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	rs, err := c.Run(q)
	if err != nil {
		tb.Fatal(err)
	}
	if cands := rs.Actuals[0].Candidates; cands < minCands {
		tb.Fatalf("%s has %d candidates, want at least %d", src, cands, minCands)
	}
	return c, q
}

// BenchmarkIIOTop times a forced-IIO TOP 10 NEAR on a 4-shard target, and
// reports the candidates and the rows read per statement beside ns/op and
// allocs/op. The generated arm's conjunction has about a hundred
// candidates among 1,000 rows. The frequent arm is skql_sharded's
// conjunctive TOP: on Restaurants(0.02) (9,125 rows), a word from the top
// 2 % of document frequencies AND one from the next band.
func BenchmarkIIOTop(b *testing.B) {
	b.Run("generated", func(b *testing.B) {
		c, q := iioTopCatalog(b)
		benchIIOTop(b, c, q)
	})
	b.Run("frequent", func(b *testing.B) {
		store := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
		stats, err := dataset.Generate(dataset.Restaurants(0.02), store)
		if err != nil {
			b.Fatal(err)
		}
		s, err := shard.New(spatialkeyword.Config{}, shard.Options{Shards: 4})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close() //nolint:errcheck // benchmark teardown
		if err := store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
			_, err := s.Add(o.Point, o.Text)
			return err
		}); err != nil {
			b.Fatal(err)
		}
		words := stats.WordsByFreq()
		frequent, mid := words[len(words)/100], words[len(words)/10]
		// The middle of the dataset's [0, 10000]² world.
		c, q := warmIIOTop(b, NewCatalog(s), fmt.Sprintf(`SELECT TOP 10 NEAR (5000, 5000) MATCH %q AND %q USING iio`,
			frequent, mid), 10)
		benchIIOTop(b, c, q)
	})
}

// benchIIOTop runs q on c b.N times.
func benchIIOTop(b *testing.B, c *Catalog, q *Query) {
	rows, cands := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := c.Run(q)
		if err != nil {
			b.Fatal(err)
		}
		rows += rs.Actuals[0].ObjectsLoaded
		cands += rs.Actuals[0].Candidates
		benchRows += rs.Count
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
	b.ReportMetric(float64(cands)/float64(b.N), "cands/op")
}

// BenchmarkSidecarFill times the first fill of a fresh catalog's sidecar
// index over 4 shards of 5,000 rows each — each row's terms taken from the
// row table (Target.Rows), no row read — and reports the rows it indexed
// per fill beside ns/op and allocs/op.
func BenchmarkSidecarFill(b *testing.B) {
	s, err := shard.New(spatialkeyword.Config{}, shard.Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // benchmark teardown
	fillTarget(b, s.Add, rand.New(rand.NewSource(7)), 20000)
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	rows := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCatalog(s)
		if err := c.EnsureIndex(); err != nil {
			b.Fatal(err)
		}
		rows += c.IndexStats().RowsIndexed
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}
