package textutil

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
	tokens := Tokenize(text)
	if a == nil || (a.Stopwords == nil && !a.Stemming) {
		return tokens
	}
	out := tokens[:0]
	for _, tok := range tokens {
		if a.Stopwords != nil {
			if _, stop := a.Stopwords[tok]; stop {
				continue
			}
		}
		if a.Stemming {
			tok = Stem(tok)
		}
		out = append(out, tok)
	}
	return out
}

// Unique returns the distinct pipeline terms of a document in
// first-occurrence order — what gets hashed into signatures and posted
// into inverted indexes.
func (a *Analyzer) Unique(text string) []string {
	tokens := a.Tokens(text)
	seen := make(map[string]struct{}, len(tokens))
	uniq := tokens[:0]
	for _, tok := range tokens {
		if _, dup := seen[tok]; dup {
			continue
		}
		seen[tok] = struct{}{}
		uniq = append(uniq, tok)
	}
	return uniq
}

// plain reports whether the pipeline is plain tokenization (no stopwords,
// no stemming) — the configurations whose scans can skip token
// materialization entirely.
func (a *Analyzer) plain() bool {
	return a == nil || (a.Stopwords == nil && !a.Stemming)
}

// TermFreqs returns the pipeline term-frequency map of a document.
func (a *Analyzer) TermFreqs(text string) map[string]int {
	tokens := a.Tokens(text)
	tf := make(map[string]int, len(tokens))
	for _, tok := range tokens {
		tf[tok]++
	}
	return tf
}

// Keyword normalizes one query keyword through the pipeline ("" if it
// dissolves — punctuation-only or a stopword).
func (a *Analyzer) Keyword(keyword string) string {
	toks := a.Tokens(keyword)
	if len(toks) == 0 {
		return ""
	}
	return toks[0]
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
	if a.plain() && len(terms) < 64 {
		return containsTermsScanBytes(viewBytes(text), terms)
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
// byte kernel's rune scan over a view of text and allocates nothing (SKQL's
// per-candidate residual filter runs here).
func (a *Analyzer) TermFreqsInto(counts []int, text string, terms []string) {
	if a.plain() {
		countTermsRunes(counts, viewBytes(text), terms)
		return
	}
	tf := a.TermFreqs(text)
	for i, term := range terms {
		counts[i] = tf[term]
	}
}
