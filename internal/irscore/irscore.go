// Package irscore implements the IR relevance scoring of the paper's
// *general* top-k spatial keyword queries (Section 5.3): a tf-idf ranking
// function IRscore(T.t, Q.t) [Sin01], the monotone combining function
// f(distance, IRscore) (Combine), and the signature-derived upper bound
// UpperBound_{T-has-signature-s}(IRscore(T.t, Q.t)) that orders the search
// queue.
//
// One deliberate deviation from the paper's sketch: the paper bounds a
// node's IR score by imagining an object that contains each
// signature-matched keyword exactly once (tf = 1). For common tf-idf
// normalizations that imaginary object is not actually the maximum, which
// would make the early-termination test unsound. We instead use a
// *saturating* term-frequency weight, tf/(tf+1) in [1/2, 1), whose supremum
// is 1; the node bound Σ idf(w) over signature-matched keywords is then a
// provable upper bound for every object in the subtree, so the general
// algorithm's output order is exact. (DESIGN.md discusses this choice.) An
// engine with a row table bounds a node tighter: it knows the largest cap
// (below) of every row it has ever held, its ceiling, so no row under any
// node has a term more often, and CapWeight(ceiling) ≥ TFWeight(tf) for each
// keyword of each of them. Σ CapWeight(ceiling)·idf(w) over the matched
// keywords, summed in ScoreFromCounts' order, is then still at least every
// row's exact score; a saturated ceiling gives back the paper's 1.
//
// An object entry's bound is tighter. Each row records a RowTF: a
// term-frequency cap (TFCap), its largest pipeline term frequency in one
// byte, saturating at MaxTFCap, and a 256-bit Bloom mask of the terms the
// row repeats. A query keyword the mask proves to occur at most once in the
// row weighs at most TFWeight(1); any other weighs at most CapWeight(cap),
// since no term occurs in the row more often than the cap and TFWeight
// grows with tf. So Σ RowTF.Weight·idf(w) over the matched keywords still
// bounds the row's exact score. The cap alone saturates on rows that repeat
// any word often; the mask keeps a keyword the row holds once at half the
// paper's weight whatever else the row repeats. A zero RowTF is unknown
// and keeps the paper's bound.
package irscore

import (
	"math"

	"spatialkeyword/internal/textutil"
)

// Scorer computes tf-idf relevance scores against a fixed corpus. The
// corpus is described by its document count and a document-frequency
// function (typically textutil.Vocabulary.DocFreq or invindex.Index.DocFreq).
type Scorer struct {
	numDocs int
	docFreq func(word string) int
	an      *textutil.Analyzer // nil = plain tokenization
}

// NewScorer returns a scorer over a corpus of numDocs documents with the
// given document-frequency source.
func NewScorer(numDocs int, docFreq func(word string) int) *Scorer {
	return &Scorer{numDocs: numDocs, docFreq: docFreq}
}

// WithAnalyzer returns a copy of the scorer that normalizes documents and
// keywords through the given text pipeline. The scorer must use the same
// analyzer as the index it scores for (and the same pipeline must have fed
// the document-frequency source), or terms will not line up.
func (s *Scorer) WithAnalyzer(a *textutil.Analyzer) *Scorer {
	out := *s
	out.an = a
	return &out
}

// idfOfTerm returns the inverse document frequency weight of an
// already-normalized pipeline term: ln(1 + N/(1+df)). Rare words weigh more;
// a word in every document still gets a small positive weight. Stemming is
// not idempotent ("agreed" → "agre" → "agr"), so normalized terms must not
// pass through the pipeline a second time.
func (s *Scorer) idfOfTerm(term string) float64 {
	df := s.docFreq(term)
	return math.Log(1 + float64(s.numDocs)/float64(1+df))
}

// TFWeight is the saturating term-frequency weight tf/(tf+1): 0 for absent
// terms, 1/2 for a single occurrence, approaching (never reaching) 1.
func TFWeight(tf int) float64 {
	if tf <= 0 {
		return 0
	}
	return float64(tf) / float64(tf+1)
}

// Score returns IRscore(text, keywords) = Σ_w TFWeight(tf_w)·IDF(w) over the
// query keywords present in the text. Keywords are normalized; duplicates
// count once.
func (s *Scorer) Score(text string, keywords []string) float64 {
	kws := s.an.Keywords(keywords)
	if len(kws) == 0 {
		return 0
	}
	tf := s.an.TermFreqs(text)
	var score float64
	for _, w := range kws {
		if n := tf[w]; n > 0 {
			score += TFWeight(n) * s.idfOfTerm(w)
		}
	}
	return score
}

// ScoreFromCounts returns IRscore for a document whose per-term frequencies
// are already counted: Σ TFWeight(counts[i])·idfs[i]. counts and idfs are
// parallel to the normalized terms of QueryIDFs (see
// textutil.Analyzer.TermFreqsInto); unlike Score, nothing is re-normalized
// and nothing allocates, so the ranked query scores each candidate straight
// off caller-owned scratch.
func ScoreFromCounts(counts []int, idfs []float64) float64 {
	var score float64
	for i, n := range counts {
		if n > 0 {
			score += TFWeight(n) * idfs[i]
		}
	}
	return score
}

// MaxTFCap is the largest term-frequency cap a row records. It stands for
// "this many or more", so it bounds nothing below the paper's weight of 1.
const MaxTFCap = math.MaxUint8

// TFCap returns the term-frequency cap recorded for a row whose largest
// pipeline term frequency is maxTF: maxTF itself, saturating at MaxTFCap.
func TFCap(maxTF int) uint8 {
	return uint8(min(maxTF, MaxTFCap))
}

// CapWeight returns the largest TFWeight any term of a row with the given
// cap can have: TFWeight(cap), since TFWeight grows with tf and no term of
// the row occurs more than cap times. A cap of 0 (unknown) or MaxTFCap
// (saturated) gives 1, the supremum the paper's bound assumes.
func CapWeight(cap uint8) float64 {
	if cap == 0 || cap == MaxTFCap {
		return 1
	}
	return TFWeight(int(cap))
}

// RepeatedMaskBits is the size of a row's repeated-term mask: what one
// byte of a TermProbe addresses. At Hotels' ≈ 35 repeated words per row,
// two bits each, a keyword the row holds once falsely reads as repeated
// about 6 % of the time (DESIGN.md S9 has the 64- and 128-bit numbers).
const RepeatedMaskBits = 256

// TermProbe is a term's two bit positions in a repeated-term mask, from one
// fixed hash (FNV-1a, finished with a multiply-xorshift mix; its bytes 0 and
// 4): the rows and the queries of every engine, and every process, agree on
// it. A query computes its keywords' probes once.
type TermProbe [2]uint8

// ProbeTerm returns the mask positions of a normalized pipeline term.
func ProbeTerm(term string) TermProbe {
	h := uint64(14695981039346656037)
	for i := 0; i < len(term); i++ {
		h ^= uint64(term[i])
		h *= 1099511628211
	}
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	return TermProbe{uint8(h), uint8(h >> 32)}
}

// RowTF is what the ranked query knows of one row's term frequencies
// without reading the row: its term-frequency cap and a Bloom mask holding
// every pipeline term the row repeats (tf ≥ 2). The zero value is unknown
// and bounds every keyword by the paper's weight of 1.
type RowTF struct {
	repeated [RepeatedMaskBits / 8]byte
	cap      uint8
}

// RowTFOf returns the summary of a row whose distinct pipeline terms are
// word(0) .. word(len(counts)-1), term i occurring counts[i] times.
func RowTFOf(counts []int32, word func(i int) string) RowTF {
	var r RowTF
	maxTF := 0
	for i, n := range counts {
		maxTF = max(maxTF, int(n))
		if n > 1 {
			r.AddRepeated(word(i))
		}
	}
	r.SetCap(maxTF)
	return r
}

// SetCap records the row's largest pipeline term frequency.
func (r *RowTF) SetCap(maxTF int) { r.cap = TFCap(maxTF) }

// Cap returns the row's term-frequency cap.
func (r *RowTF) Cap() uint8 { return r.cap }

// AddRepeated records a pipeline term that occurs in the row at least twice.
func (r *RowTF) AddRepeated(term string) {
	for _, b := range ProbeTerm(term) {
		r.repeated[b>>3] |= 1 << (b & 7)
	}
}

// MayRepeat reports whether the term with probe p may occur in the row more
// than once. A Bloom mask has no false negatives: false means the row holds
// the term at most once.
func (r *RowTF) MayRepeat(p TermProbe) bool {
	return r.repeated[p[0]>>3]&(1<<(p[0]&7)) != 0 && r.repeated[p[1]>>3]&(1<<(p[1]&7)) != 0
}

// Weight returns the largest TFWeight the term with probe p can have in the
// row: TFWeight(1) when the mask proves the term occurs at most once,
// otherwise CapWeight of the row's cap (1 when the cap is unknown).
func (r *RowTF) Weight(p TermProbe) float64 {
	if r.cap > 1 && !r.MayRepeat(p) {
		return TFWeight(1)
	}
	return CapWeight(r.cap)
}

// UpperBound returns the maximum possible IRscore of any document whose
// query-term set is a subset of the given matched keywords: Σ idf(w), since
// every term weight is strictly below 1. matchedIDFs are the IDF values of
// the keywords whose signatures matched (paper Section 5.3, item (i): the
// general algorithm tests each keyword's signature individually).
func UpperBound(matchedIDFs []float64) float64 {
	var ub float64
	for _, idf := range matchedIDFs {
		ub += idf
	}
	return ub
}

// QueryIDFs returns the IDF of every normalized query keyword, in the
// normalized keyword order (paired with the per-keyword signatures the
// general algorithm builds).
func (s *Scorer) QueryIDFs(keywords []string) (normalized []string, idfs []float64) {
	return s.QueryIDFsInto(nil, nil, keywords)
}

// QueryIDFsInto is QueryIDFs appending to normalized[:0] and idfs[:0], so a
// query that keeps both slices allocates neither.
func (s *Scorer) QueryIDFsInto(normalized []string, idfs []float64, keywords []string) ([]string, []float64) {
	normalized = s.an.KeywordsInto(normalized, keywords)
	idfs = idfs[:0]
	for _, w := range normalized {
		idfs = append(idfs, s.idfOfTerm(w))
	}
	return normalized, idfs
}

// Combine is the ranking function f(distance(T.p, Q.p), IRscore(T.t, Q.t))
// of the problem definition: f = (ε + IRscore) / (1 + dist/100), higher is
// better. Relevance halves at distance 100; ε = 1e-9 is a relevance floor,
// and part of every published score's bits. It is monotone — non-increasing
// in distance, non-decreasing in IR score — which is what makes
// Upper(v) = f(MinDist(v), UpperBoundIR(v)) a valid queue priority.
func Combine(dist, ir float64) float64 {
	return (1e-9 + ir) / (1 + dist/100)
}
