package invindex

import (
	"fmt"
	"math/rand"
	"testing"

	"spatialkeyword/internal/storage"
)

// benchDoc draws a 14-word document from a skewed 5000-word vocabulary
// (squaring the uniform draw makes low word numbers common), the shape of
// the restaurants dataset the serving benchmarks index.
func benchDoc(rng *rand.Rand) []string {
	words := make([]string, 14)
	for i := range words {
		u := rng.Float64()
		words[i] = fmt.Sprintf("w%d", int(u*u*5000))
	}
	return words
}

// benchIndex builds an index over docs documents and appends tail more.
func benchIndex(b *testing.B, docs, tail int) (*Index, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	ix := New(storage.NewDisk(storage.DefaultBlockSize))
	for i := 0; i < docs; i++ {
		ix.Add(uint64(i), benchDoc(rng))
	}
	if err := ix.Build(); err != nil {
		b.Fatal(err)
	}
	for i := docs; i < docs+tail; i++ {
		if err := ix.Append(uint64(i), benchDoc(rng)); err != nil {
			b.Fatal(err)
		}
	}
	return ix, rng
}

// BenchmarkIndexAppend is the per-row cost of keeping a built index
// current: one 14-word document into the tail of a 10k-document index.
func BenchmarkIndexAppend(b *testing.B) {
	const docs = 10000
	ix, rng := benchIndex(b, docs, 0)
	batch := make([][]string, 1024)
	for i := range batch {
		batch[i] = benchDoc(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Append(uint64(docs+i), batch[i%len(batch)]); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink int

// BenchmarkIntersectWithTail is a two-word intersection (a common word
// and a mid-frequency one) on a 10k-document index, with an empty tail
// and with the largest tail the catalog lets build up before it folds.
func BenchmarkIntersectWithTail(b *testing.B) {
	for _, tail := range []int{0, 1250} {
		b.Run(fmt.Sprintf("tail=%d", tail), func(b *testing.B) {
			ix, _ := benchIndex(b, 10000, tail)
			query := []string{"w3", "w400"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refs, err := ix.Intersect(query)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(refs)
			}
		})
	}
}
