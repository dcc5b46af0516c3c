package textutil

import "unicode/utf8"

// Analyzer is a configurable text-analysis pipeline: tokenization (always),
// optional stopword removal, optional Porter stemming. Index and query text
// must pass through the *same* analyzer — a stemmed index probed with
// unstemmed keywords misses — so the analyzer lives in the index options
// (core.Options.Analyzer / spatialkeyword.Config) rather than being applied
// ad hoc.
//
// The zero value is the plain pipeline (tokenize only), which matches the
// paper's experiments.
type Analyzer struct {
	// Stopwords are dropped after tokenization. Nil keeps every token.
	Stopwords map[string]struct{}
	// Stemming applies the Porter stemmer to every surviving token.
	Stemming bool
}

// DefaultStopwords returns a standard small English stopword set.
func DefaultStopwords() map[string]struct{} {
	words := []string{
		"a", "an", "and", "are", "as", "at", "be", "but", "by", "for",
		"if", "in", "into", "is", "it", "no", "not", "of", "on", "or",
		"such", "that", "the", "their", "then", "there", "these", "they",
		"this", "to", "was", "will", "with",
	}
	set := make(map[string]struct{}, len(words))
	for _, w := range words {
		set[w] = struct{}{}
	}
	return set
}

// Tokens runs the full pipeline over a document, preserving order and
// duplicates (term frequencies).
func (a *Analyzer) Tokens(text string) []string {
	sc := walk(a, text)
	defer sc.release()
	var tokens []string
	for {
		term, ok := sc.next()
		if !ok {
			return tokens
		}
		tokens = append(tokens, string(term))
	}
}

// Unique returns the distinct pipeline terms of a document in
// first-occurrence order — what gets hashed into signatures and posted
// into inverted indexes. It allocates the result and one string per term,
// and nothing else once its pooled working space has grown.
func (a *Analyzer) Unique(text string) []string {
	sc := walk(a, text)
	defer sc.release()
	for {
		term, ok := sc.next()
		if !ok {
			break
		}
		if _, dup := sc.seen[string(term)]; dup {
			continue
		}
		w := string(term)
		sc.seen[w] = struct{}{}
		sc.terms = append(sc.terms, w)
	}
	if len(sc.terms) == 0 {
		return nil
	}
	return append(make([]string, 0, len(sc.terms)), sc.terms...)
}

// plain reports whether the pipeline is plain tokenization (no stopwords,
// no stemming) — the configurations whose scans can skip token
// materialization entirely.
func (a *Analyzer) plain() bool {
	return a == nil || (a.Stopwords == nil && !a.Stemming)
}

// TermFreqs returns the pipeline term-frequency map of a document.
func (a *Analyzer) TermFreqs(text string) map[string]int {
	sc := walk(a, text)
	defer sc.release()
	tf := make(map[string]int)
	for {
		term, ok := sc.next()
		if !ok {
			return tf
		}
		tf[string(term)]++
	}
}

// Keyword normalizes one query keyword through the pipeline: its first
// pipeline term, or "" if it has none (punctuation only, or stopwords). On
// the plain pipeline a keyword that is already one lower-case ASCII token
// of letters and digits comes back as it is, allocation-free: the planner's
// and the idf's per-word lookups (Vocabulary.DocFreq) run here.
func (a *Analyzer) Keyword(keyword string) string {
	if a.plain() && lowerASCIIToken(keyword) {
		return keyword
	}
	sc := walk(a, keyword)
	defer sc.release()
	term, _ := sc.next()
	return string(term)
}

// lowerASCIIToken reports whether s is one token that tokenization leaves
// as it is: non-empty, and only lower-case ASCII letters and digits.
func lowerASCIIToken(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || asciiTab[c] != c|asciiTokenBit {
			return false
		}
	}
	return len(s) > 0
}

// Keywords normalizes a keyword list, dropping empties and duplicates while
// preserving order.
func (a *Analyzer) Keywords(keywords []string) []string {
	out := make([]string, 0, len(keywords))
	seen := make(map[string]struct{}, len(keywords))
	for _, w := range keywords {
		n := a.Keyword(w)
		if n == "" {
			continue
		}
		if _, dup := seen[n]; dup {
			continue
		}
		seen[n] = struct{}{}
		out = append(out, n)
	}
	return out
}

// ContainsTerms reports whether the document contains every given
// already-normalized pipeline term. On the plain pipeline it runs the byte
// kernel over a view of text and allocates nothing (the false-positive
// filters of range queries and fences run here).
func (a *Analyzer) ContainsTerms(text string, terms []string) bool {
	if len(terms) == 0 {
		return true
	}
	if a.plain() {
		return containsTermsBytes(viewBytes(text), terms)
	}
	set := make(map[string]struct{})
	for _, tok := range a.Tokens(text) {
		set[tok] = struct{}{}
	}
	for _, term := range terms {
		if _, ok := set[term]; !ok {
			return false
		}
	}
	return true
}

// TermFreqsInto fills counts[i] with the pipeline term frequency of terms[i]
// in text. Terms must already be normalized through this pipeline; counts
// must have at least len(terms) elements. On the plain pipeline it runs the
// byte kernel over a view of text and allocates nothing (SKQL's
// per-candidate residual filter runs here).
func (a *Analyzer) TermFreqsInto(counts []int, text string, terms []string) {
	if a.plain() {
		CountTermsBytesInto(counts, viewBytes(text), terms)
		return
	}
	tf := a.TermFreqs(text)
	for i, term := range terms {
		counts[i] = tf[term]
	}
}
