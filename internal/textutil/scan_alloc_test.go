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
}

// TestCountTermsBytesAllocFree gates the ranked query's per-candidate tf
// kernel: once its fold buffer has grown to the longest row, counting
// allocates nothing on either path — including for a term too long for the
// compiler's stack buffer, which a []byte(term) conversion would allocate.
func TestCountTermsBytesAllocFree(t *testing.T) {
	terms := []string{"pool", "internet", strings.Repeat("x", 40)}
	counts := make([]int, len(terms))
	rows := [][]byte{
		[]byte(strings.Repeat("wireless internet heated pool nearby ", 60)),
		[]byte("Wireless Internet, heated Pool"),
		[]byte("Wireless Internet, heated pool, café"),
	}
	var fold []byte
	for _, row := range rows {
		CountTermsBytesInto(counts, row, terms, &fold)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, row := range rows {
			CountTermsBytesInto(counts, row, terms, &fold)
		}
	})
	if allocs != 0 {
		t.Errorf("warm CountTermsBytesInto allocates %.1f objects/op, want 0", allocs)
	}
}
