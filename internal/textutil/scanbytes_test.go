package textutil

import (
	"math/rand"
	"strings"
	"testing"
)

// TestByteKernelsMatchStringKernels pins the byte-slice twins to the string
// kernels over the shared scan corpus.
func TestByteKernelsMatchStringKernels(t *testing.T) {
	terms := []string{"pizza", "internet", "café", "a1", "word", "missing"}
	sCounts := make([]int, len(terms))
	bCounts := make([]int, len(terms))
	for _, doc := range scanDocs {
		CountTermsInto(sCounts, doc, terms)
		CountTermsBytesInto(bCounts, []byte(doc), terms)
		for i := range terms {
			if sCounts[i] != bCounts[i] {
				t.Errorf("doc %q term %q: string %d, bytes %d", doc, terms[i], sCounts[i], bCounts[i])
			}
		}
		for n := 1; n <= len(terms); n++ {
			s := containsTermsScan(doc, terms[:n])
			b := containsTermsScanBytes([]byte(doc), terms[:n])
			if s != b {
				t.Errorf("doc %q terms %v: string %v, bytes %v", doc, terms[:n], s, b)
			}
		}
	}
}

// TestByteKernelsRandomized cross-checks random documents, including ones
// with multi-byte runes and truncated UTF-8.
func TestByteKernelsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vocab := []string{"pizza", "café", "bar", "sushi", "a1"}
	pieces := []string{" ", ", ", "-", "\xff", "é", "PIZZA", "Café", "bar", "a1", "sushi!"}
	for trial := 0; trial < 300; trial++ {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		doc := b.String()
		terms := make([]string, 1+rng.Intn(3))
		for i := range terms {
			terms[i] = vocab[rng.Intn(len(vocab))]
		}
		counts := make([]int, len(terms))
		bcounts := make([]int, len(terms))
		CountTermsInto(counts, doc, terms)
		CountTermsBytesInto(bcounts, []byte(doc), terms)
		for i := range terms {
			if counts[i] != bcounts[i] {
				t.Fatalf("doc %q term %q: string %d, bytes %d", doc, terms[i], counts[i], bcounts[i])
			}
		}
		if s, by := containsTermsScan(doc, terms), containsTermsScanBytes([]byte(doc), terms); s != by {
			t.Fatalf("doc %q terms %v: string %v, bytes %v", doc, terms, s, by)
		}
	}
}

// TestAnalyzerBytesFallbacks checks the non-plain pipeline falls back to the
// string path with identical results.
func TestAnalyzerBytesFallbacks(t *testing.T) {
	a := &Analyzer{Stopwords: DefaultStopwords(), Stemming: true}
	doc := "the agreements were pooled by the hotels"
	terms := a.Keywords([]string{"agreement", "pool"})
	sCounts := make([]int, len(terms))
	bCounts := make([]int, len(terms))
	a.TermFreqsInto(sCounts, doc, terms)
	a.TermFreqsBytesInto(bCounts, []byte(doc), terms)
	for i := range terms {
		if sCounts[i] != bCounts[i] {
			t.Errorf("term %q: string %d, bytes %d", terms[i], sCounts[i], bCounts[i])
		}
	}
	if s, b := a.ContainsTerms(doc, terms), a.ContainsTermsBytes([]byte(doc), terms); s != b {
		t.Errorf("ContainsTerms %v, ContainsTermsBytes %v", s, b)
	}
	var plain *Analyzer
	if !plain.ContainsTermsBytes([]byte("anything"), nil) {
		t.Error("empty term set must be vacuously contained")
	}
}

// BenchmarkCountTermsBytes times the tf-counting kernel of the ranked
// candidate filter on a Hotels-sized row: pure ASCII (the table path for
// every byte) and with an accented word in every tenth position.
func BenchmarkCountTermsBytes(b *testing.B) {
	terms := []string{"pool", "internet", "café"}
	counts := make([]int, len(terms))
	ascii := []byte(strings.Repeat("Wireless Internet, heated pool and a golf course nearby; ", 40))
	mixed := []byte(strings.Repeat("Wireless Internet, heated pool and a café Zürich nearby; ", 40))
	for _, c := range []struct {
		name string
		text []byte
	}{{"ascii", ascii}, {"mixed", mixed}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CountTermsBytesInto(counts, c.text, terms)
			}
		})
	}
}
