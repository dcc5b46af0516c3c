// Package irscore implements the IR relevance scoring of the paper's
// *general* top-k spatial keyword queries (Section 5.3): a tf-idf ranking
// function IRscore(T.t, Q.t) [Sin01], a monotone combining function
// f(distance, IRscore), and the signature-derived upper bound
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
// algorithm's output order is exact. (DESIGN.md discusses this choice.)
//
// An object entry's bound is tighter. Each row records a term-frequency cap
// (TFCap): its largest pipeline term frequency, one byte, saturating at
// MaxTFCap. No query term occurs in the row more often than that, and
// TFWeight grows with tf, so Σ CapWeight(cap)·idf(w) over the matched
// keywords still bounds the row's exact score. On rows that repeat few
// words the cap is small (a row whose words each occur once is bounded by
// Σ idf/2); on long real documents a per-row maximum tends to saturate,
// and the bound falls back towards the paper's. A cap of 0 is unknown and
// keeps the paper's bound.
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

// IDF returns the inverse document frequency weight of a word:
// ln(1 + N/(1+df)). Rare words weigh more; a word in every document still
// gets a small positive weight.
func (s *Scorer) IDF(word string) float64 {
	return s.idfOfTerm(s.an.Keyword(word))
}

// idfOfTerm is IDF for an already-normalized pipeline term. Stemming is not
// idempotent ("agreed" → "agre" → "agr"), so normalized terms must not pass
// through the pipeline a second time.
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
	normalized = s.an.Keywords(keywords)
	idfs = make([]float64, len(normalized))
	for i, w := range normalized {
		idfs[i] = s.idfOfTerm(w)
	}
	return normalized, idfs
}

// Combiner is the ranking function f(distance(T.p, Q.p), IRscore(T.t, Q.t))
// of the problem definition. Implementations must be monotone —
// non-increasing in distance and non-decreasing in IR score — which is what
// makes Upper(v) = f(MinDist(v), UpperBoundIR(v)) a valid queue priority.
type Combiner interface {
	// Combine returns the overall score; higher is better.
	Combine(dist, ir float64) float64
}

// DistanceDiscount is the default combiner: f = (ε + IRscore) / (1 + dist/Scale).
// Scale sets how quickly relevance is discounted with distance; ε keeps a
// tiny positive score for keyword-less matches so pure-spatial ties still
// order by distance.
type DistanceDiscount struct {
	// Scale is the distance at which relevance is halved. Zero means 1.
	Scale float64
	// Epsilon is the relevance floor. Zero means 1e-9.
	Epsilon float64
}

// Combine implements Combiner.
func (c DistanceDiscount) Combine(dist, ir float64) float64 {
	scale := c.Scale
	if scale == 0 {
		scale = 1
	}
	eps := c.Epsilon
	if eps == 0 {
		eps = 1e-9
	}
	return (eps + ir) / (1 + dist/scale)
}
