package textutil

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/storage"
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
	for _, doc := range scanDocs {
		want := tokenCounts(doc, terms)
		plain.TermFreqsInto(sCounts, doc, terms)
		CountTermsBytesInto(bCounts, []byte(doc), terms)
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
		CountTermsBytesInto(bcounts, []byte(doc), terms)
		for i := range terms {
			if counts[i] != want[i] || bcounts[i] != want[i] {
				t.Fatalf("doc %q term %q: string %d, bytes %d, want %d", doc, terms[i], counts[i], bcounts[i], want[i])
			}
		}
		w := allPositive(want)
		if s, by := plain.ContainsTerms(doc, terms), containsTermsBytes([]byte(doc), terms); s != w || by != w {
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
	if s, b := a.ContainsTerms(doc, terms), a.ContainsTermsBytes([]byte(doc), terms); s != b {
		t.Errorf("ContainsTerms %v, ContainsTermsBytes %v", s, b)
	}
	var plain *Analyzer
	if !plain.ContainsTermsBytes([]byte("anything"), nil) {
		t.Error("empty term set must be vacuously contained")
	}
}

// TestLowerASCII holds the walker's word-at-a-time lower-casing to asciiTab
// for every ASCII byte in every position of a word and of the byte-wise
// tail, and the kernel's classification — letterHi, tokenHi, and a block's
// token bitmap (blockTokens) — to asciiTab's token bit in every lane. A byte ≥ 0x80 anywhere hands the rest of the row
// to the rune fold, which must give the rune reference's tokens.
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
	var w walker
	for n := 0; n <= len(src); n++ {
		w.reset(nil, src[:n])
		if len(w.fold) != n {
			t.Fatalf("n=%d: folded %d bytes", n, len(w.fold))
		}
		for i, c := range src[:n] {
			if want := asciiTab[c] &^ asciiTokenBit; w.fold[i] != want {
				t.Fatalf("n=%d: byte %#x lower-cased to %#x, want %#x", n, c, w.fold[i], want)
			}
		}
	}
	for i := 0; i+8 <= len(src); i++ {
		word := binary.LittleEndian.Uint64(src[i:])
		letters, tok := letterHi(word), tokenHi(word)
		for lane := 0; lane < 8; lane++ {
			c := src[i+lane]
			isTok := asciiTab[c]&asciiTokenBit != 0
			isLetter := isTok && (c < '0' || c > '9')
			if got := tok>>(8*lane+7)&1 == 1; got != isTok {
				t.Fatalf("byte %#x in lane %d: token %v, want %v", c, lane, got, isTok)
			}
			if got := letters>>(8*lane+7)&1 == 1; got != isLetter {
				t.Fatalf("byte %#x in lane %d: letter %v, want %v", c, lane, got, isLetter)
			}
		}
	}
	isTok := func(c byte) uint64 { return uint64(asciiTab[c] >> 7) }
	for i := 0; i+64 <= len(src); i++ {
		tok, any := blockTokens(src[i:])
		if any&hiBits != 0 {
			t.Fatalf("block at %d: ASCII bytes read as ≥ 0x80", i)
		}
		for j, c := range src[i : i+64] {
			if tok>>j&1 != isTok(c) {
				t.Fatalf("byte %#x at %d of the block at %d: token bit %d, want %d", c, j, i, tok>>j&1, isTok(c))
			}
		}
	}
	for _, bad := range []string{"\x80", "\xc3", "\xff", "é", "\u212A"} {
		for pos := 0; pos < 20; pos++ {
			text := strings.Repeat("A", pos) + bad + strings.Repeat("B c", 5)
			if got, want := Tokenize(text), tokenizeRunes(text); !slices.Equal(got, want) {
				t.Errorf("Tokenize(%q) = %q, want %q", text, got, want)
			}
		}
	}
}

// TestCountTermsBytesEdgeCases pins the token kernel — token starts and
// lengths from a block's bitmap, a term compared by its first word and its
// tail — and its fallback to the rune scan where a byte comparison would be
// wrong, to exact counts; the string entry point and both membership
// entries to the same answers.
func TestCountTermsBytesEdgeCases(t *testing.T) {
	long := strings.Repeat("pool spa ", 300)
	var many []string // more terms than the membership bitmask once held
	for i := 0; i < 70; i++ {
		many = append(many, fmt.Sprintf("w%d", i))
	}
	manyText := strings.ToUpper(strings.Join(many, " ")) + " w69"
	manyWant := make([]int, len(many))
	for i := range manyWant {
		manyWant[i] = 1
	}
	manyWant[69] = 2
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
		{"token straddles a word", "spa a pool; spa", []string{"pool", "spa"}, []int{1, 2}},
		{"token straddles a block", strings.Repeat(" ", 62) + "pool spa", []string{"pool", "spa"}, []int{1, 1}},
		{"token continues into a block", strings.Repeat(" ", 59) + "whirlpool spa", []string{"pool", "whirlpool"}, []int{0, 1}},
		{"token fills a block", strings.Repeat("x", 64) + " " + strings.Repeat("x", 130), []string{strings.Repeat("x", 64), strings.Repeat("x", 130)}, []int{1, 1}},
		{"non-ASCII letter ends a token past its block", strings.Repeat(" ", 62) + "poolé", []string{"pool"}, []int{0}},
		{"term longer than a word", "internetwork INTERNETWORX InterNetWork internetworks", []string{"internetwork", "internetworx"}, []int{2, 1}},
		{"term at byte 0 and the last byte", "pool" + strings.Repeat(" ", 57) + "spa", []string{"pool", "spa"}, []int{1, 1}},
		{"capitals and digits", "POOL Pool pOoL p00l P00L 24H 24h 24", []string{"pool", "p00l", "24h", "24"}, []int{3, 2, 2, 1}},
		{"term holding a separator", "pool pool\x00spa", []string{"pool ", "pool\x00", "pool"}, []int{0, 0, 2}},
		{"duplicate terms", "spa pool POOL", []string{"pool", "pool", "spa"}, []int{2, 2, 1}},
		{"more terms than a pass", manyText, many, manyWant},
		{"more terms than a pass, one missing", manyText, append(slices.Clone(many[:69]), "w70"), append(slices.Clone(manyWant[:69]), 0)},
		{"Kelvin sign in an ASCII row", strings.Repeat("pool ", 20) + "\u212Aitten", []string{"kitten", "pool"}, []int{1, 20}},
	}
	var plain *Analyzer
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if want := tokenCounts(c.text, c.terms); !slices.Equal(want, c.want) {
				t.Fatalf("the rune reference counts %v, the case says %v", want, c.want)
			}
			got := make([]int, len(c.terms))
			ref := make([]int, len(c.terms))
			CountTermsBytesInto(got, []byte(c.text), c.terms)
			plain.TermFreqsInto(ref, c.text, c.terms)
			for i := range c.terms {
				if got[i] != c.want[i] || ref[i] != c.want[i] {
					t.Errorf("term %q: bytes kernel %d, string entry %d, want %d", c.terms[i], got[i], ref[i], c.want[i])
				}
			}
			w := allPositive(c.want)
			if b, s := plain.ContainsTermsBytes([]byte(c.text), c.terms), plain.ContainsTerms(c.text, c.terms); b != w || s != w {
				t.Errorf("contains all: bytes %v, string %v, want %v", b, s, w)
			}
		})
	}
}

// benchRows are the rows the kernel benchmarks scan: three kinds of row,
// each one sentence long and 40 sentences (a Hotels-sized row, ~2.3 KB)
// long — lower-case ASCII, mixed-case ASCII, and ASCII with an accented
// word in every sentence, which takes the rune scan.
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

// generatedRows are rows shaped like the served data, whose English
// sentences benchRows is not: the first rows dataset.Generate writes for
// Hotels(0.02) (≈ 2.3 KB) and Restaurants(0.02) (≈ 115 bytes), with the
// keywords of the perf workloads that read them — ranked_hotels' one word
// of the top 2 % by document frequency and two of the next 18 %, and
// topk_restaurants' one of each. Every generated word is consonant–vowel
// syllables, so a keyword's first letter comes round every few dozen bytes,
// inside words as well as at their starts. An op is one row, taken in turn.
func generatedRows(b *testing.B, run func(b *testing.B, rows [][]byte, terms []string)) {
	for _, c := range []struct {
		name string
		spec dataset.Spec
		rows int
		mid  int
	}{{"hotels", dataset.Hotels(0.02), 40, 2}, {"restaurants", dataset.Restaurants(0.02), 400, 1}} {
		c.spec.NumObjects = c.rows
		store := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
		stats, err := dataset.Generate(c.spec, store)
		if err != nil {
			b.Fatal(err)
		}
		var rows [][]byte
		size := 0
		if err := store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
			rows, size = append(rows, []byte(o.Text)), size+len(o.Text)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		words := stats.WordsByFreq()
		frequent, mid := words[:len(words)/50], words[len(words)/50:len(words)/5]
		terms := []string{frequent[len(frequent)/2]}
		for i := 1; i <= c.mid; i++ {
			terms = append(terms, mid[i*len(mid)/(c.mid+1)])
		}
		b.Run("generated/"+c.name, func(b *testing.B) {
			b.SetBytes(int64(size / len(rows)))
			b.ReportAllocs()
			run(b, rows, terms)
		})
	}
}

// BenchmarkCountTermsBytes times the tf-counting kernel of the ranked
// candidate filter.
func BenchmarkCountTermsBytes(b *testing.B) {
	generatedRows(b, func(b *testing.B, rows [][]byte, terms []string) {
		counts := make([]int, len(terms))
		for i := 0; i < b.N; i++ {
			CountTermsBytesInto(counts, rows[i%len(rows)], terms)
		}
	})
	terms := []string{"pool", "internet", "café"}
	counts := make([]int, len(terms))
	benchRows(b, func(b *testing.B, text string) {
		row := []byte(text)
		for i := 0; i < b.N; i++ {
			CountTermsBytesInto(counts, row, terms)
		}
	})
}

// BenchmarkContainsTerms times the membership test — the distance-first
// query's, the range query's and the fences' false-positive filter. On the
// generated rows it takes the rows' bytes, as the query filters do; on the
// sentences it takes the string entry, which runs the byte kernel over a
// view of the string, and one term is absent, so every call scans the
// whole row, as a rejected candidate does.
func BenchmarkContainsTerms(b *testing.B) {
	var plain *Analyzer
	generatedRows(b, func(b *testing.B, rows [][]byte, terms []string) {
		for i := 0; i < b.N; i++ {
			sinkBool(plain.ContainsTermsBytes(rows[i%len(rows)], terms))
		}
	})
	terms := []string{"pool", "spa"}
	benchRows(b, func(b *testing.B, text string) {
		for i := 0; i < b.N; i++ {
			sinkBool(plain.ContainsTerms(text, terms))
		}
	})
}
