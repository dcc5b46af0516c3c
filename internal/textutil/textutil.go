// Package textutil provides the text processing used by the keyword side of
// the library: tokenization of object descriptions, vocabulary construction,
// and per-document term statistics.
//
// The paper treats an object's text T.t as "the concatenation of the name
// and amenities attributes" and matches keywords case-insensitively (its
// running example matches "internet" against "Internet" and
// "wireless Internet"). Tokenize therefore lower-cases input and splits on
// any non-alphanumeric rune.
package textutil

import (
	"strings"
	"unicode"
)

// Tokenize splits a document into lower-case word tokens. Runs of letters
// and digits form tokens; every other rune is a separator. The result
// preserves document order and may contain duplicates (term frequency
// information); (*Analyzer)(nil).Unique gives the distinct-word set.
func Tokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

// ContainsAll reports whether the document contains every query keyword.
// This is the conjunctive ("Boolean keyword query") check of the paper's
// distance-first queries, and the false-positive filter of IR2TopK line 21.
// Keywords are normalized with the same rules as Tokenize. It builds the
// document's token set: the R-Tree baseline's filter, and the reference the
// scan kernels are tested against.
func ContainsAll(text string, keywords []string) bool {
	if len(keywords) == 0 {
		return true
	}
	var plain *Analyzer
	set := TokenSet(text)
	for _, w := range keywords {
		if _, ok := set[plain.Keyword(w)]; !ok {
			return false
		}
	}
	return true
}

// TokenSet returns the distinct-word set of a document.
func TokenSet(text string) map[string]struct{} {
	tokens := Tokenize(text)
	set := make(map[string]struct{}, len(tokens))
	for _, tok := range tokens {
		set[tok] = struct{}{}
	}
	return set
}

// Vocabulary accumulates corpus-level term statistics: the set of distinct
// words and their document frequencies. It backs Table 1's "total # unique
// words" column and the idf component of the IR score.
type Vocabulary struct {
	docFreq map[string]int
	numDocs int
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{docFreq: make(map[string]int)}
}

// AddDocWith folds one document in through the given analyzer pipeline
// (nil is plain tokenization) and returns the document's largest pipeline
// term frequency: no term of the document occurs more often (0 for a
// document with no terms). It calls repeated, if not nil, once for every
// term the document holds at least twice, as the term's second occurrence
// is counted. Every document of a corpus must go through the same pipeline.
func (v *Vocabulary) AddDocWith(a *Analyzer, text string, repeated func(term string)) (maxTF int) {
	tokens := a.Tokens(text)
	tf := make(map[string]int, len(tokens))
	for _, tok := range tokens {
		n := tf[tok] + 1
		tf[tok] = n
		maxTF = max(maxTF, n)
		switch {
		case n == 1:
			v.docFreq[tok]++
		case n == 2 && repeated != nil:
			repeated(tok)
		}
	}
	v.numDocs++
	return maxTF
}

// NumDocs returns the number of documents added.
func (v *Vocabulary) NumDocs() int { return v.numDocs }

// NumWords returns the number of distinct words across the corpus.
func (v *Vocabulary) NumWords() int { return len(v.docFreq) }

// DocFreq returns the number of documents containing word (normalized).
func (v *Vocabulary) DocFreq(word string) int {
	var plain *Analyzer
	return v.docFreq[plain.Keyword(word)]
}
