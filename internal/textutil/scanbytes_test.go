package textutil

import (
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"
)

// scanDocs exercise case folding, punctuation boundaries, repeated terms,
// unicode, and degenerate inputs.
var scanDocs = []string{
	"",
	"   ...   ",
	"pizza",
	"Pizza PIZZA pizza!",
	"wireless Internet, pool; Internet",
	"café CAFÉ cafe",
	"a1 b2 a1a1 a1",
	strings.Repeat("word ", 50) + "tail",
	"\u212Aitten İstanbul \xff a1",
}

// tokenCounts is the definition every kernel entry point is held to:
// counts[i] is how many of the rune reference's tokens of text equal
// terms[i].
func tokenCounts(text string, terms []string) []int {
	counts := make([]int, len(terms))
	for _, tok := range tokenizeRunes(text) {
		for i, term := range terms {
			if tok == term {
				counts[i]++
			}
		}
	}
	return counts
}

//go:noinline
func sinkBool(b bool) {}

//go:noinline
func sinkInt(n int) {}

// allPositive reports whether every count is above zero.
func allPositive(counts []int) bool {
	for _, n := range counts {
		if n == 0 {
			return false
		}
	}
	return true
}

func TestTermFreqsIntoMatchesTermFreqs(t *testing.T) {
	var plain *Analyzer
	terms := []string{"pizza", "internet", "café", "a1", "word", "kitten", "istanbul", "missing"}
	counts := make([]int, len(terms))
	for _, doc := range scanDocs {
		plain.TermFreqsInto(counts, doc, terms)
		tf := plain.TermFreqs(doc) // the map-building path of the other pipelines
		for i, term := range terms {
			if counts[i] != tf[term] {
				t.Errorf("doc %q term %q: TermFreqsInto %d, TermFreqs %d", doc, term, counts[i], tf[term])
			}
		}
	}
}

func TestContainsTermsMatchesMapPath(t *testing.T) {
	var plain *Analyzer
	rng := rand.New(rand.NewSource(9))
	vocab := []string{"pizza", "cafe", "bar", "sushi", "deli", "pool", "internet"}
	for trial := 0; trial < 200; trial++ {
		var b strings.Builder
		for w := rng.Intn(8); w > 0; w-- {
			if rng.Intn(3) == 0 {
				b.WriteString(strings.ToUpper(vocab[rng.Intn(len(vocab))]))
			} else {
				b.WriteString(vocab[rng.Intn(len(vocab))])
			}
			b.WriteString([]string{" ", ", ", "; ", "-"}[rng.Intn(4)])
		}
		doc := b.String()
		terms := make([]string, 1+rng.Intn(3))
		for i := range terms {
			terms[i] = vocab[rng.Intn(len(vocab))]
		}
		got := plain.ContainsTerms(doc, terms)
		// Oracle: the map-based membership test.
		set := TokenSet(doc)
		want := true
		for _, term := range terms {
			if _, ok := set[term]; !ok {
				want = false
			}
		}
		if got != want {
			t.Fatalf("doc %q terms %v: scan %v, map %v", doc, terms, got, want)
		}
	}
}

func TestTokenFoldEq(t *testing.T) {
	cases := []struct {
		tok, term string
		want      bool
	}{
		{"Pizza", "pizza", true},
		{"PIZZA", "pizza", true},
		{"pizza", "pizzas", false},
		{"pizzas", "pizza", false},
		{"CAFÉ", "café", true},
		{"\u212Aitten", "kitten", true},
		{"", "", true},
		{"a", "", false},
		{"", "a", false},
	}
	for _, c := range cases {
		if got := tokenFoldEqBytes([]byte(c.tok), c.term); got != c.want {
			t.Errorf("tokenFoldEqBytes(%q, %q) = %v, want %v", c.tok, c.term, got, c.want)
		}
	}
}

// TestByteKernelsMatchStringKernels pins the byte entry points and the
// string ones (ContainsTerms and TermFreqsInto, which run the same kernels
// over a view of the string) to the rune reference over the shared scan corpus.
func TestByteKernelsMatchStringKernels(t *testing.T) {
	var plain *Analyzer
	terms := []string{"pizza", "internet", "café", "a1", "word", "kitten", "missing"}
	sCounts := make([]int, len(terms))
	bCounts := make([]int, len(terms))
	var fold []byte
	for _, doc := range scanDocs {
		want := tokenCounts(doc, terms)
		plain.TermFreqsInto(sCounts, doc, terms)
		CountTermsBytesInto(bCounts, []byte(doc), terms, &fold)
		for i := range terms {
			if sCounts[i] != want[i] || bCounts[i] != want[i] {
				t.Errorf("doc %q term %q: string %d, bytes %d, want %d", doc, terms[i], sCounts[i], bCounts[i], want[i])
			}
		}
		for n := 1; n <= len(terms); n++ {
			w := allPositive(want[:n])
			s := plain.ContainsTerms(doc, terms[:n])
			b := plain.ContainsTermsBytes([]byte(doc), terms[:n])
			if s != w || b != w {
				t.Errorf("doc %q terms %v: string %v, bytes %v, want %v", doc, terms[:n], s, b, w)
			}
		}
	}
}

// TestByteKernelsRandomized cross-checks random documents, including ones
// with multi-byte runes and truncated UTF-8.
func TestByteKernelsRandomized(t *testing.T) {
	var plain *Analyzer
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
		want := tokenCounts(doc, terms)
		counts := make([]int, len(terms))
		bcounts := make([]int, len(terms))
		plain.TermFreqsInto(counts, doc, terms)
		CountTermsBytesInto(bcounts, []byte(doc), terms, &fold)
		for i := range terms {
			if counts[i] != want[i] || bcounts[i] != want[i] {
				t.Fatalf("doc %q term %q: string %d, bytes %d, want %d", doc, terms[i], counts[i], bcounts[i], want[i])
			}
		}
		w := allPositive(want)
		if s, by := plain.ContainsTerms(doc, terms), containsTermsScanBytes([]byte(doc), terms); s != w || by != w {
			t.Fatalf("doc %q terms %v: string %v, bytes %v, want %v", doc, terms, s, by, w)
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
// where a substring search would be wrong, to exact counts, and the string
// entry point (the rune scan alone) to the same counts.
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
	var plain *Analyzer
	var fold []byte
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := make([]int, len(c.terms))
			ref := make([]int, len(c.terms))
			CountTermsBytesInto(got, []byte(c.text), c.terms, &fold)
			plain.TermFreqsInto(ref, c.text, c.terms)
			for i := range c.terms {
				if got[i] != c.want[i] || ref[i] != c.want[i] {
					t.Errorf("term %q: bytes kernel %d, string entry %d, want %d", c.terms[i], got[i], ref[i], c.want[i])
				}
			}
		})
	}
}

// benchRows are the rows the kernel benchmarks scan: three kinds of row,
// each one sentence long and 40 sentences (a Hotels-sized row, ~2.3 KB)
// long — lower-case ASCII like the Hotels generator's rows, mixed-case
// ASCII, and ASCII with an accented word in every sentence, which takes the
// rune scan.
func benchRows(b *testing.B, run func(b *testing.B, text string)) {
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
			text := strings.Repeat(c.sentence, size.reps)
			b.Run(c.name+"/"+size.name, func(b *testing.B) {
				b.SetBytes(int64(len(text)))
				b.ReportAllocs()
				run(b, text)
			})
		}
	}
}

// BenchmarkCountTermsBytes times the tf-counting kernel of the ranked
// candidate filter.
func BenchmarkCountTermsBytes(b *testing.B) {
	terms := []string{"pool", "internet", "café"}
	counts := make([]int, len(terms))
	var fold []byte
	benchRows(b, func(b *testing.B, text string) {
		row := []byte(text)
		for i := 0; i < b.N; i++ {
			CountTermsBytesInto(counts, row, terms, &fold)
		}
	})
}

// BenchmarkContainsTerms times the string entry of the membership test —
// the range query's and the fences' false-positive filter — which runs the
// byte kernel over a view of the string. One term is absent, so every call
// scans the whole row, as a rejected candidate does.
func BenchmarkContainsTerms(b *testing.B) {
	var plain *Analyzer
	terms := []string{"pool", "spa"}
	benchRows(b, func(b *testing.B, text string) {
		for i := 0; i < b.N; i++ {
			sinkBool(plain.ContainsTerms(text, terms))
		}
	})
}
