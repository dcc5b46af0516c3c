package sigfile

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

var testCfg = Config{LengthBytes: 16, BitsPerWord: 4}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name  string
		cfg   Config
		level int
		ok    bool
	}{
		{"valid", Config{LengthBytes: 8, BitsPerWord: 2}, 0, true},
		{"zero length", Config{LengthBytes: 0, BitsPerWord: 2}, 0, false},
		{"negative length", Config{LengthBytes: -1, BitsPerWord: 2}, 0, false},
		{"zero bits", Config{LengthBytes: 8, BitsPerWord: 0}, 0, false},
		{"zero length above the leaves", Config{LengthBytes: 0, BitsPerWord: 2}, 1, true},
		{"negative length above the leaves", Config{LengthBytes: -1, BitsPerWord: 2}, 2, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(tt.level); (err == nil) != tt.ok {
				t.Errorf("Validate(%d) = %v, want ok=%v", tt.level, err, tt.ok)
			}
		})
	}
}

// TestZeroLengthMatchesEverything: a level with no signature sets no bit and
// matches any query, in both the byte and the word form.
// TestHashIsFNV1a holds Hash to the standard library's 64-bit FNV-1a, the
// hash every stored signature was set from, so signatures stay byte-exact.
func TestHashIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	words := []string{"", "a", "restaurant", "caf\u00e9", "\u212avin"}
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		words = append(words, string(b))
	}
	for _, w := range words {
		f := fnv.New64a()
		f.Write([]byte(w))
		if got, want := Hash(w), f.Sum64(); got != want {
			t.Fatalf("Hash(%q) = %x, want %x", w, got, want)
		}
	}
}

// TestAppendBitsAreSetHashBits holds the positions AppendBits lists to the
// bits SetHash sets, at every length class mod 8 and bits per word.
func TestAppendBitsAreSetHashBits(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for n := 0; n <= 200; n++ {
		for _, k := range []int{1, 4, 9} {
			c := Config{LengthBytes: n, BitsPerWord: k}
			h := rng.Uint64()
			want := c.New()
			c.SetHash(want, h)
			got := c.New()
			bits := c.AppendBits(nil, h)
			for _, b := range bits {
				got[b/8] |= 1 << (b % 8)
			}
			if !got.Equal(want) || (n > 0) != (len(bits) == k) {
				t.Fatalf("len %d, k %d: AppendBits %v sets %x, SetHash %x", n, k, bits, got, want)
			}
		}
	}
}

func TestZeroLengthMatchesEverything(t *testing.T) {
	none := Config{LengthBytes: 0, BitsPerWord: 4}
	doc := none.DocSignature([]string{"pool", "spa"})
	if len(doc) != 0 {
		t.Fatalf("0-length document signature has %d bytes", len(doc))
	}
	q := none.WordSignature("golf")
	if !Matches(doc, q) || !MakeSig64(q).MatchesTolerant(doc) {
		t.Fatal("0-length signatures do not match")
	}
}

func TestWordSignatureDeterministicAndWeight(t *testing.T) {
	a := testCfg.WordSignature("internet")
	b := testCfg.WordSignature("internet")
	if !a.Equal(b) {
		t.Error("same word produced different signatures")
	}
	w := 0
	for _, b := range a {
		w += bits.OnesCount8(b)
	}
	if w == 0 || w > testCfg.BitsPerWord {
		t.Errorf("word signature weight = %d, want 1..%d", w, testCfg.BitsPerWord)
	}
	if a.Equal(testCfg.WordSignature("pool")) {
		t.Error("distinct words produced identical signatures (16-byte sig, extremely unlikely)")
	}
}

func TestNoFalseNegatives(t *testing.T) {
	// The defining property of superimposed codes: if the document contains
	// the query words, the match test must succeed.
	words := []string{"internet", "pool", "spa", "sauna", "tennis", "golf", "concierge"}
	doc := testCfg.DocSignature(words)
	for _, w := range words {
		if !Matches(doc, testCfg.WordSignature(w)) {
			t.Errorf("false negative for contained word %q", w)
		}
	}
	q := testCfg.DocSignature([]string{"internet", "pool"})
	if !Matches(doc, q) {
		t.Error("false negative for contained word pair")
	}
}

func TestQuickNoFalseNegatives(t *testing.T) {
	cfg := Config{LengthBytes: 8, BitsPerWord: 3}
	f := func(words []string, pick uint8) bool {
		if len(words) == 0 {
			return true
		}
		doc := cfg.DocSignature(words)
		w := words[int(pick)%len(words)]
		return Matches(doc, cfg.WordSignature(w))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMatchesRejectsAbsentBits(t *testing.T) {
	doc := testCfg.DocSignature([]string{"spa"})
	// A query superimposing many words will almost surely set a bit that a
	// single-word signature did not.
	q := testCfg.DocSignature([]string{"internet", "pool", "golf", "sauna"})
	if Matches(doc, q) {
		t.Error("single-word doc matched 4-word query (would be a 1-in-many false positive)")
	}
}

func TestMatchesEmptyQuery(t *testing.T) {
	doc := testCfg.DocSignature([]string{"spa"})
	if !Matches(doc, testCfg.New()) {
		t.Error("empty query signature must match everything")
	}
}

func TestMatchesLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Matches(make(Signature, 4), make(Signature, 8))
}

func TestSuperimposeMonotone(t *testing.T) {
	a := testCfg.DocSignature([]string{"internet"})
	b := testCfg.DocSignature([]string{"pool", "spa"})
	part := a.Clone()
	// Superimpose must not mutate src.
	before := b.Clone()
	Superimpose(a, b)
	if !b.Equal(before) {
		t.Error("Superimpose mutated src")
	}
	if !Matches(a, part) || !Matches(a, b) {
		t.Error("superimposition does not cover its parts")
	}
}

func TestSuperimposeLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Superimpose(make(Signature, 2), make(Signature, 3))
}

func TestQuickSuperimpositionPreservesMatches(t *testing.T) {
	// If s matches q, then s OR anything still matches q — the property that
	// makes parent-node pruning sound in the IR²-Tree.
	cfg := Config{LengthBytes: 8, BitsPerWord: 3}
	f := func(docWords, otherWords, queryWords []string) bool {
		doc := cfg.DocSignature(docWords)
		q := cfg.DocSignature(queryWords)
		if !Matches(doc, q) {
			return true // antecedent false
		}
		parent := doc.Clone()
		Superimpose(parent, cfg.DocSignature(otherWords))
		return Matches(parent, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSignatureBasics(t *testing.T) {
	s := testCfg.New()
	if !s.IsZero() {
		t.Error("fresh signature not zero")
	}
	testCfg.SetWord(s, "x")
	if s.IsZero() {
		t.Error("SetWord left signature zero")
	}
	c := s.Clone()
	c[0] ^= 0xFF
	if s.Equal(c) {
		t.Error("Clone aliases storage")
	}
	if s.Equal(make(Signature, 1)) {
		t.Error("Equal across lengths")
	}
	if fmt.Sprintf("%v", Signature{0xab, 0x01}) != "ab01" {
		t.Errorf("String = %v", Signature{0xab, 0x01})
	}
}

func TestOptimalBits(t *testing.T) {
	// m = k·D/ln2: 4 bits/word, 100 words → 577.08 → 578 bits.
	if got := OptimalBits(100, 4); got != 578 {
		t.Errorf("OptimalBits(100,4) = %d, want 578", got)
	}
	if got := OptimalBits(0, 4); got != 8 {
		t.Errorf("OptimalBits floor = %d, want 8", got)
	}
	if got := OptimalLengthBytes(100, 4); got != 73 {
		t.Errorf("OptimalLengthBytes(100,4) = %d, want 73", got)
	}
}

func TestFalsePositiveRateEmpirical(t *testing.T) {
	// With an optimally sized signature the measured false-positive rate for
	// absent words should be small; with a much-too-short signature it
	// should be large. This validates the whole design chain end to end.
	const docWords = 50
	rng := rand.New(rand.NewSource(99))
	makeWords := func(n int, tag string) []string {
		ws := make([]string, n)
		for i := range ws {
			ws[i] = fmt.Sprintf("%s-%d", tag, rng.Int63())
		}
		return ws
	}
	measure := func(cfg Config) float64 {
		var fp, total int
		for trial := 0; trial < 30; trial++ {
			doc := cfg.DocSignature(makeWords(docWords, "doc"))
			for _, probe := range makeWords(100, "absent") {
				total++
				if Matches(doc, cfg.WordSignature(probe)) {
					fp++
				}
			}
		}
		return float64(fp) / float64(total)
	}
	good := Config{LengthBytes: OptimalLengthBytes(docWords, 4), BitsPerWord: 4}
	bad := Config{LengthBytes: 4, BitsPerWord: 4}
	gRate, bRate := measure(good), measure(bad)
	if gRate > 0.15 {
		t.Errorf("optimal config false-positive rate %g too high", gRate)
	}
	if bRate < gRate {
		t.Errorf("short signature (%g) outperformed optimal (%g)", bRate, gRate)
	}
	if bRate < 0.5 {
		t.Errorf("4-byte signature over 50 words should be nearly saturated, fp=%g", bRate)
	}
}
