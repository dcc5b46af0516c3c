package textutil

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []string
	}{
		{"simple", "tennis court", []string{"tennis", "court"}},
		{"case folding", "wireless Internet, pool", []string{"wireless", "internet", "pool"}},
		{"punctuation", "wake-up service; no pets!", []string{"wake", "up", "service", "no", "pets"}},
		{"digits kept", "open 24 hours", []string{"open", "24", "hours"}},
		{"empty", "", nil},
		{"only separators", " ,;-- ", nil},
		{"duplicates preserved", "pool spa pool", []string{"pool", "spa", "pool"}},
		{"unicode letters", "café Münchén", []string{"café", "münchén"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Tokenize(tt.in); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

// TestUniqueTokens: the plain pipeline's Unique is the distinct-word set in
// first-occurrence order.
func TestUniqueTokens(t *testing.T) {
	var plain *Analyzer
	got := plain.Unique("pool spa Pool internet spa")
	want := []string{"pool", "spa", "internet"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Unique = %v, want %v", got, want)
	}
	if got := plain.Unique(""); len(got) != 0 {
		t.Errorf("Unique(empty) = %v", got)
	}
}

func TestContainsAll(t *testing.T) {
	// Hotel G from the paper's Figure 1.
	doc := "Hotel G Internet, airport transportation, pool"
	tests := []struct {
		name     string
		keywords []string
		want     bool
	}{
		{"both present (paper example)", []string{"internet", "pool"}, true},
		{"case-insensitive query", []string{"INTERNET", "Pool"}, true},
		{"one missing", []string{"internet", "spa"}, false},
		{"empty keyword list", nil, true},
		{"single present", []string{"airport"}, true},
		{"substring is not a word", []string{"port"}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ContainsAll(doc, tt.keywords); got != tt.want {
				t.Errorf("ContainsAll(%v) = %v, want %v", tt.keywords, got, tt.want)
			}
		})
	}
}

// TestNormalize: the plain pipeline's Keyword is a keyword's first token.
func TestNormalize(t *testing.T) {
	var plain *Analyzer
	tests := []struct{ in, want string }{
		{"Internet", "internet"},
		{"  POOL  ", "pool"},
		{"wake-up", "wake"},
		{"", ""},
		{"!!!", ""},
	}
	for _, tt := range tests {
		if got := plain.Keyword(tt.in); got != tt.want {
			t.Errorf("Keyword(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// TestNormalizeAll: the plain pipeline's Keywords drops empties and
// duplicates and keeps the order.
func TestNormalizeAll(t *testing.T) {
	got := (*Analyzer)(nil).Keywords([]string{"Internet", "pool", "", "INTERNET", "!!", "spa"})
	want := []string{"internet", "pool", "spa"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Keywords = %v, want %v", got, want)
	}
}

func TestVocabulary(t *testing.T) {
	v := NewVocabulary()
	// Figure 1 amenity lists (abridged).
	docs := []string{
		"tennis court, gift shop, spa, Internet",
		"wireless Internet, pool, golf course",
		"spa, continental suites, pool",
	}
	for _, d := range docs {
		v.AddDocWith(nil, d)
	}
	if v.NumDocs() != 3 {
		t.Errorf("NumDocs = %d", v.NumDocs())
	}
	if got := v.DocFreq("internet"); got != 2 {
		t.Errorf("DocFreq(internet) = %d, want 2", got)
	}
	if got := v.DocFreq("POOL"); got != 2 {
		t.Errorf("DocFreq(POOL) = %d, want 2 (normalization)", got)
	}
	if got := v.DocFreq("sauna"); got != 0 {
		t.Errorf("DocFreq(sauna) = %d, want 0", got)
	}
	// Doc unique counts: 6, 5, 4 → avg 5.
	if got, want := avgUniqueWords(v), 5.0; got != want {
		t.Errorf("average unique words per doc = %g, want %g", got, want)
	}
}

// TestAddDocWithReportsRepeatedTerms: AddDocWith returns every pipeline
// term of the document once, in first-occurrence order, with its term
// frequency, so the terms it counts twice or more are the repeated ones.
func TestAddDocWithReportsRepeatedTerms(t *testing.T) {
	stem := &Analyzer{Stemming: true, Stopwords: DefaultStopwords()}
	for _, c := range []struct {
		a      *Analyzer
		text   string
		terms  []string
		counts []int32
	}{
		{nil, "", nil, nil},
		{nil, "pool spa sauna", []string{"pool", "spa", "sauna"}, []int32{1, 1, 1}},
		{nil, "Pool spa POOL, spa pool gift", []string{"pool", "spa", "gift"}, []int32{3, 2, 1}},
		{stem, "the fishing, the fished fish and pools pool", []string{"fish", "pool"}, []int32{3, 2}},
	} {
		v := NewVocabulary()
		ids, counts := v.AddDocWith(c.a, c.text)
		var terms []string
		for _, id := range ids {
			terms = append(terms, v.Word(id))
		}
		if !reflect.DeepEqual(terms, c.terms) || !reflect.DeepEqual(slices.Clone(counts), c.counts) {
			t.Errorf("AddDocWith(%q) = %q %v, want %q %v", c.text, terms, counts, c.terms, c.counts)
		}
	}
}

// synthRow is a synthetic row of the given number of distinct random
// lower-case words of 3 to 9 letters, a quarter of them occurring two or
// three times. With accents, every eighth word is capitalised and ends in
// "é", so the row takes the tokenizer's rune path.
func synthRow(rng *rand.Rand, distinct int, accents bool) string {
	var sb strings.Builder
	for i := 0; i < distinct; i++ {
		w := make([]byte, 3+rng.Intn(7))
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		if accents && i%8 == 0 {
			w[0] -= 'a' - 'A'
			w = append(w, "é"...)
		}
		tf := 1
		if i%4 == 0 {
			tf += 1 + rng.Intn(2)
		}
		for ; tf > 0; tf-- {
			sb.Write(w)
			sb.WriteByte(' ')
		}
	}
	return sb.String()
}

// BenchmarkAddDocWith times an add's vocabulary fold with its term
// counts, on a Hotels-length row (349 distinct words) and a
// Restaurants-length one (14), a quarter of the words of each occurring two
// or three times. It also reports the repeated terms per row.
func BenchmarkAddDocWith(b *testing.B) {
	rng := rand.New(rand.NewSource(38))
	for _, c := range []struct {
		name     string
		distinct int
	}{{"hotels", 349}, {"restaurants", 14}} {
		text := synthRow(rng, c.distinct, false)
		b.Run(c.name, func(b *testing.B) {
			v := NewVocabulary()
			repeated := 0
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, counts := v.AddDocWith(nil, text)
				for _, n := range counts {
					if n > 1 {
						repeated++
					}
				}
			}
			b.ReportMetric(float64(repeated)/float64(b.N), "repeated/op")
		})
	}
}

// BenchmarkTokenize times Tokenize, which builds a string per token, on a
// Restaurants-length row (14 distinct words), a Hotels-length one (349) and
// a Hotels-length row with an accented word in every eight, which takes the
// walker's rune path.
func BenchmarkTokenize(b *testing.B) {
	rng := rand.New(rand.NewSource(48))
	for _, c := range []struct {
		name     string
		distinct int
		accents  bool
	}{{"restaurants", 14, false}, {"hotels", 349, false}, {"nonascii", 349, true}} {
		text := synthRow(rng, c.distinct, c.accents)
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkInt(len(Tokenize(text)))
			}
		})
	}
}

// avgUniqueWords is the mean number of distinct words per document: each
// document adds one to the frequency of each of its distinct words.
func avgUniqueWords(v *Vocabulary) float64 {
	if v.numDocs == 0 {
		return 0
	}
	sum := 0
	for _, df := range v.docFreq {
		sum += int(df)
	}
	return float64(sum) / float64(v.numDocs)
}

func TestEmptyVocabulary(t *testing.T) {
	v := NewVocabulary()
	if avgUniqueWords(v) != 0 {
		t.Error("empty vocabulary average should be 0")
	}
	if v.NumWords() != 0 || v.NumDocs() != 0 {
		t.Error("empty vocabulary counts should be 0")
	}
}

func TestQuickTokenizeAlwaysLowercaseAndNonEmpty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" || tok != strings.ToLower(tok) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickContainsAllOfOwnTokens(t *testing.T) {
	// Every document contains all of its own unique tokens.
	f := func(s string) bool {
		return ContainsAll(s, (*Analyzer)(nil).Unique(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUniqueTokensAreUnique(t *testing.T) {
	f := func(s string) bool {
		uniq := (*Analyzer)(nil).Unique(s)
		seen := make(map[string]struct{}, len(uniq))
		for _, w := range uniq {
			if _, dup := seen[w]; dup {
				return false
			}
			seen[w] = struct{}{}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
