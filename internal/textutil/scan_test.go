package textutil

import (
	"math/rand"
	"strings"
	"testing"
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
}

func TestCountTermsIntoMatchesTermFreqs(t *testing.T) {
	terms := []string{"pizza", "internet", "café", "a1", "word", "missing"}
	counts := make([]int, len(terms))
	for _, doc := range scanDocs {
		CountTermsInto(counts, doc, terms)
		tf := (*Analyzer)(nil).TermFreqs(doc) // the plain pipeline's map-building path
		for i, term := range terms {
			if counts[i] != tf[term] {
				t.Errorf("doc %q term %q: CountTermsInto %d, TermFreqs %d", doc, term, counts[i], tf[term])
			}
		}
	}
}

func TestContainsTermsScanMatchesMapPath(t *testing.T) {
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
		got := containsTermsScan(doc, terms)
		// Oracle: the original map-based membership test.
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
		{"", "", true},
		{"a", "", false},
		{"", "a", false},
	}
	for _, c := range cases {
		if got := tokenFoldEq(c.tok, c.term); got != c.want {
			t.Errorf("tokenFoldEq(%q, %q) = %v, want %v", c.tok, c.term, got, c.want)
		}
	}
}
