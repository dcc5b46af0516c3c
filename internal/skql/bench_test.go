package skql

import (
	"fmt"
	"math/rand"
	"testing"

	"spatialkeyword"
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
