package textutil

import (
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestByteKernelsMatchStringKernels pins the byte-slice twins to the string
// kernels over the shared scan corpus.
func TestByteKernelsMatchStringKernels(t *testing.T) {
	terms := []string{"pizza", "internet", "café", "a1", "word", "missing"}
	sCounts := make([]int, len(terms))
	bCounts := make([]int, len(terms))
	var fold []byte
	for _, doc := range scanDocs {
		CountTermsInto(sCounts, doc, terms)
		CountTermsBytesInto(bCounts, []byte(doc), terms, &fold)
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
	var fold []byte
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
		CountTermsBytesInto(bcounts, []byte(doc), terms, &fold)
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
	a.TermFreqsBytesInto(bCounts, []byte(doc), terms, new([]byte))
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

// TestLowerASCII holds the word-at-a-time lower-casing to asciiTab for
// every ASCII byte in every position of a word and of the byte-wise tail,
// and checks it refuses text with a byte ≥ 0x80 anywhere.
func TestLowerASCII(t *testing.T) {
	// Eight runs of all 128 bytes, each followed by one filler byte, so
	// byte c of run k sits in lane (k+c) mod 8 of its word.
	var src []byte
	for k := 0; k < 8; k++ {
		for c := 0; c < utf8.RuneSelf; c++ {
			src = append(src, byte(c))
		}
		src = append(src, 'x')
	}
	dst := make([]byte, len(src))
	for n := 0; n <= len(src); n++ {
		if !lowerASCII(dst[:n], src[:n]) {
			t.Fatalf("lowerASCII refused %d ASCII bytes", n)
		}
		for i, c := range src[:n] {
			if want := asciiTab[c] &^ asciiTokenBit; dst[i] != want {
				t.Fatalf("n=%d: byte %#x lower-cased to %#x, want %#x", n, c, dst[i], want)
			}
		}
	}
	for _, bad := range []byte{0x80, 0xc3, 0xff} {
		for pos := 0; pos < 20; pos++ {
			text := []byte(strings.Repeat("A", 20))
			text[pos] = bad
			if lowerASCII(make([]byte, len(text)), text) {
				t.Errorf("lowerASCII accepted byte %#x at %d", bad, pos)
			}
		}
	}
}

// TestCountTermsBytesEdgeCases pins the kernel's ASCII path — a substring
// search per term plus a boundary check — and its fallback to the rune scan
// where a substring search would be wrong, to exact counts and to the
// string kernel.
func TestCountTermsBytesEdgeCases(t *testing.T) {
	long := strings.Repeat("pool spa ", 300)
	cases := []struct {
		name  string
		text  string
		terms []string
		want  []int
	}{
		{"capitals at token boundaries", "POOL,pool Pool", []string{"pool"}, []int{3}},
		{"term with non-token bytes", "a-b a b", []string{"a-b", "a", "b"}, []int{0, 2, 2}},
		{"term with capitals", "Pool pool POOL", []string{"Pool", "POOL"}, []int{0, 0}},
		{"empty term", "pool  pool", []string{""}, []int{0}},
		{"term longer than text", "po", []string{"pool"}, []int{0}},
		{"self-overlapping term", "aaa aa aaaa", []string{"aa", "a"}, []int{1, 0}},
		{"term inside longer tokens", "whirlpool pools pool", []string{"pool"}, []int{1}},
		{"term at start and end", "pool spa pool", []string{"pool", "spa"}, []int{2, 1}},
		{"term is the whole text", "pool", []string{"pool", "poo", "ool"}, []int{1, 0, 0}},
		{"digits", "a1 1a 11 1 a11", []string{"a1", "1", "11", "a"}, []int{1, 1, 1, 0}},
		{"NUL separates tokens", "pool\x00pool\x00", []string{"pool"}, []int{2}},
		{"0xff separates tokens", "pool\xffpool\xff", []string{"pool"}, []int{2}},
		{"non-ASCII last byte of a long row", long + "spa\xff", []string{"pool", "spa"}, []int{300, 301}},
		{"non-ASCII letter ends a long row", long + "poolé", []string{"pool", "poolé"}, []int{300, 1}},
		{"Kitten", "Kitten KITTEN kitten", []string{"kitten"}, []int{3}},
		{"Kelvin sign lower-cases to k", "\u212Aitten \u212AITTEN", []string{"kitten"}, []int{2}},
		{"İstanbul", "İstanbul İSTANBUL Istanbul", []string{"istanbul"}, []int{3}},
		{"no terms", "pool", nil, []int{}},
	}
	var fold []byte
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := make([]int, len(c.terms))
			ref := make([]int, len(c.terms))
			CountTermsBytesInto(got, []byte(c.text), c.terms, &fold)
			CountTermsInto(ref, c.text, c.terms)
			for i := range c.terms {
				if got[i] != c.want[i] || ref[i] != c.want[i] {
					t.Errorf("term %q: bytes kernel %d, string kernel %d, want %d", c.terms[i], got[i], ref[i], c.want[i])
				}
			}
		})
	}
}

// BenchmarkCountTermsBytes times the tf-counting kernel of the ranked
// candidate filter on three kinds of row, each one sentence long and 40
// sentences (a Hotels-sized row, ~2.3 KB) long: lower-case ASCII like the
// Hotels generator's rows, mixed-case ASCII, and ASCII with an accented word
// in every sentence, which takes the rune scan.
func BenchmarkCountTermsBytes(b *testing.B) {
	terms := []string{"pool", "internet", "café"}
	counts := make([]int, len(terms))
	var fold []byte
	for _, c := range []struct {
		name, sentence string
	}{
		{"lower", "wireless internet heated pool and a golf course nearby "},
		{"mixedcase", "Wireless Internet, heated pool and a golf course nearby; "},
		{"nonascii", "Wireless Internet, heated pool and a café Zürich nearby; "},
	} {
		for _, size := range []struct {
			name string
			reps int
		}{{"short", 1}, {"long", 40}} {
			text := []byte(strings.Repeat(c.sentence, size.reps))
			b.Run(c.name+"/"+size.name, func(b *testing.B) {
				b.SetBytes(int64(len(text)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					CountTermsBytesInto(counts, text, terms, &fold)
				}
			})
		}
	}
}
