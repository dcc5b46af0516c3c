//go:build !race

package textutil

import (
	"strings"
	"testing"
)

// TestContainsTermsAllocFree gates the plain-pipeline membership scan: the
// per-candidate false-positive filter of every top-k query must not
// allocate. Skipped under -race (the detector breaks AllocsPerRun).
func TestContainsTermsAllocFree(t *testing.T) {
	var a *Analyzer
	doc := "wireless Internet, pool; ocean view suite"
	terms := []string{"internet", "pool"}
	allocs := testing.AllocsPerRun(100, func() {
		sinkBool(a.ContainsTerms(doc, terms))
	})
	if allocs != 0 {
		t.Errorf("plain ContainsTerms allocates %.1f objects/op, want 0", allocs)
	}
	counts := make([]int, len(terms))
	allocs = testing.AllocsPerRun(100, func() {
		a.TermFreqsInto(counts, doc, terms)
	})
	if allocs != 0 {
		t.Errorf("plain TermFreqsInto allocates %.1f objects/op, want 0", allocs)
	}
	many := strings.Fields("a b c d e f g h i j k l")
	allocs = testing.AllocsPerRun(100, func() {
		sinkBool(a.ContainsTermsBytes([]byte("Wireless Internet, café"), many))
	})
	if allocs != 0 {
		t.Errorf("plain ContainsTermsBytes of %d terms on a non-ASCII row allocates %.1f objects/op, want 0", len(many), allocs)
	}
}

// TestCountTermsBytesAllocFree gates the ranked query's per-candidate tf
// kernel: counting allocates nothing on either path, with no scratch of the
// caller's — including for a term too long for the compiler's stack
// buffer, which a []byte(term) conversion would allocate, and for more
// terms than one pass of the token kernel takes.
func TestCountTermsBytesAllocFree(t *testing.T) {
	terms := []string{"pool", "internet", strings.Repeat("x", 40), "a", "b", "c", "d", "e", "f", "g"}
	counts := make([]int, len(terms))
	rows := [][]byte{
		[]byte(strings.Repeat("wireless internet heated pool nearby ", 60)),
		[]byte("Wireless Internet, heated Pool"),
		[]byte("Wireless Internet, heated pool, café"),
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, row := range rows {
			CountTermsBytesInto(counts, row, terms)
		}
	})
	if allocs != 0 {
		t.Errorf("warm CountTermsBytesInto allocates %.1f objects/op, want 0", allocs)
	}
}

// TestDocFreqAllocFree gates the idf lookup the SKQL planner makes per
// word, per shard, per statement: DocFreq of an already-normalized term
// takes Keyword's fast path and allocates nothing.
func TestDocFreqAllocFree(t *testing.T) {
	v := NewVocabulary()
	v.AddDocWith(nil, "wireless Internet, pool; ocean view suite 24h")
	for _, word := range []string{"internet", "24h", "sauna"} {
		allocs := testing.AllocsPerRun(100, func() {
			sinkInt(v.DocFreq(word))
		})
		if allocs != 0 {
			t.Errorf("DocFreq(%q) allocates %.1f objects/op, want 0", word, allocs)
		}
	}
}

// TestUniqueAllocatesOnlyItsResult gates the per-row analysis of the SKQL
// sidecar's catch-up, the inverted index and the fences: Unique of a
// 15-word Restaurants row allocates its result slice and one string per
// distinct term, and nothing else once its pooled working space has grown.
func TestUniqueAllocatesOnlyItsResult(t *testing.T) {
	var plain *Analyzer
	row := "Golden Dragon: Chinese restaurant, dim sum, noodles, take-out; free wireless Internet, parking, Golden week specials"
	want := len(plain.Unique(row))
	if want != 15 {
		t.Fatalf("the row has %d distinct words, want 15", want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sinkInt(len(plain.Unique(row)))
	})
	if allocs != float64(1+want) {
		t.Errorf("Unique allocates %.1f objects/op, want %d (the slice and %d strings)", allocs, 1+want, want)
	}
}

// TestAddDocWithAllocFree gates the fold every add, replayed add and
// reopened row goes through: once the vocabulary holds a document's words,
// folding it again allocates nothing, on the plain and the stemming
// pipelines.
func TestAddDocWithAllocFree(t *testing.T) {
	row := "Golden Dragon: Chinese restaurant, dim sum, take-out; free wireless Internet, parking, Golden week specials, Café"
	for _, a := range []*Analyzer{nil, {Stopwords: DefaultStopwords(), Stemming: true}} {
		v := NewVocabulary()
		v.AddDocWith(a, row)
		allocs := testing.AllocsPerRun(100, func() {
			v.AddDocWith(a, row)
		})
		if allocs != 0 {
			t.Errorf("AddDocWith (stemming %v) allocates %.1f objects/op, want 0", a != nil, allocs)
		}
	}
}
