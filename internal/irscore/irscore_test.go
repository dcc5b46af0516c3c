package irscore

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"spatialkeyword/internal/textutil"
)

// corpus builds a scorer over a tiny fixed corpus.
func corpus() (*Scorer, []string) {
	docs := []string{
		"internet pool spa",
		"pool sauna",
		"internet internet internet",
		"gift shop",
		"pool pool pool gift",
	}
	v := textutil.NewVocabulary()
	for _, d := range docs {
		v.AddDocWith(nil, d)
	}
	return NewScorer(v.NumDocs(), v.DocFreq), docs
}

// idf is a word's idf as the scorer weighs it: normalized, then looked up.
func idf(s *Scorer, word string) float64 { return s.idfOfTerm(s.an.Keyword(word)) }

func TestIDFOrdering(t *testing.T) {
	s, _ := corpus()
	// df: pool=3, internet=2, spa=1, absent=0.
	idfPool := idf(s, "pool")
	idfInternet := idf(s, "internet")
	idfSpa := idf(s, "spa")
	idfAbsent := idf(s, "unicorn")
	if !(idfPool < idfInternet && idfInternet < idfSpa && idfSpa < idfAbsent) {
		t.Errorf("idf ordering wrong: pool=%g internet=%g spa=%g absent=%g",
			idfPool, idfInternet, idfSpa, idfAbsent)
	}
	if idfPool <= 0 {
		t.Error("ubiquitous word must keep positive idf")
	}
	// Case-insensitive.
	if idf(s, "POOL") != idfPool {
		t.Error("idf not normalized")
	}
}

func TestTFWeight(t *testing.T) {
	if TFWeight(0) != 0 || TFWeight(-3) != 0 {
		t.Error("absent term weight must be 0")
	}
	if TFWeight(1) != 0.5 {
		t.Errorf("TFWeight(1) = %g", TFWeight(1))
	}
	prev := 0.0
	for tf := 1; tf < 100; tf++ {
		w := TFWeight(tf)
		if w <= prev || w >= 1 {
			t.Fatalf("TFWeight(%d) = %g not in (prev, 1)", tf, w)
		}
		prev = w
	}
}

func TestScore(t *testing.T) {
	s, _ := corpus()
	// Doc with both keywords beats docs with one.
	both := s.Score("internet pool spa", []string{"internet", "pool"})
	onlyPool := s.Score("pool sauna", []string{"internet", "pool"})
	neither := s.Score("gift shop", []string{"internet", "pool"})
	if !(both > onlyPool && onlyPool > neither) {
		t.Errorf("score ordering: both=%g one=%g none=%g", both, onlyPool, neither)
	}
	if neither != 0 {
		t.Errorf("no-match score = %g, want 0", neither)
	}
	// Higher tf (saturating) helps but is bounded.
	tf1 := s.Score("internet", []string{"internet"})
	tf3 := s.Score("internet internet internet", []string{"internet"})
	if !(tf3 > tf1) {
		t.Error("tf must increase score")
	}
	if tf3 >= 2*tf1 {
		t.Error("tf weight must saturate (tf=3 below 2x tf=1)")
	}
	// Duplicated query keywords count once.
	dup := s.Score("internet pool", []string{"internet", "INTERNET", "internet"})
	single := s.Score("internet pool", []string{"internet"})
	if dup != single {
		t.Errorf("duplicate keywords changed score: %g vs %g", dup, single)
	}
	// Empty keywords.
	if s.Score("internet", nil) != 0 {
		t.Error("empty query must score 0")
	}
}

func TestUpperBoundDominatesAllScores(t *testing.T) {
	// The soundness property the general algorithm relies on: for any
	// document, Score <= UpperBound over the matched keywords' IDFs.
	s, docs := corpus()
	queries := [][]string{
		{"internet"},
		{"internet", "pool"},
		{"internet", "pool", "spa", "gift", "sauna"},
	}
	for _, q := range queries {
		normalized, idfs := s.QueryIDFs(q)
		ub := UpperBound(idfs)
		for _, d := range docs {
			if got := s.Score(d, normalized); got > ub+1e-12 {
				t.Errorf("Score(%q, %v) = %g exceeds UpperBound %g", d, q, got, ub)
			}
		}
	}
}

func TestUpperBoundRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for trial := 0; trial < 100; trial++ {
		// Random corpus.
		v := textutil.NewVocabulary()
		docs := make([]string, 3+rng.Intn(20))
		for i := range docs {
			var d string
			for j := 0; j < 1+rng.Intn(15); j++ {
				d += vocab[rng.Intn(len(vocab))] + " "
			}
			docs[i] = d
			v.AddDocWith(nil, d)
		}
		s := NewScorer(v.NumDocs(), v.DocFreq)
		// Random query.
		q := vocab[:1+rng.Intn(len(vocab))]
		_, idfs := s.QueryIDFs(q)
		ub := UpperBound(idfs)
		for _, d := range docs {
			if got := s.Score(d, q); got > ub+1e-12 {
				t.Fatalf("trial %d: score %g > ub %g for doc %q query %v", trial, got, ub, d, q)
			}
		}
	}
}

func TestQueryIDFs(t *testing.T) {
	s, _ := corpus()
	normalized, idfs := s.QueryIDFs([]string{"Internet", "POOL", "internet", ""})
	if len(normalized) != 2 || normalized[0] != "internet" || normalized[1] != "pool" {
		t.Errorf("normalized = %v", normalized)
	}
	if len(idfs) != 2 || idfs[0] != idf(s, "internet") || idfs[1] != idf(s, "pool") {
		t.Errorf("idfs = %v", idfs)
	}
}

func TestCombineMonotone(t *testing.T) {
	// Non-increasing in distance.
	prev := math.Inf(1)
	for d := 0.0; d <= 1000; d += 50 {
		v := Combine(d, 1.0)
		if v > prev {
			t.Fatalf("f increased with distance at %g", d)
		}
		prev = v
	}
	// Non-decreasing in IR score.
	prev = -1
	for ir := 0.0; ir <= 10; ir += 0.5 {
		v := Combine(50, ir)
		if v < prev {
			t.Fatalf("f decreased with ir at %g", ir)
		}
		prev = v
	}
	// At zero relevance, closer still beats farther (epsilon floor).
	if Combine(1, 0) <= Combine(2, 0) {
		t.Error("epsilon floor missing: zero-relevance ties not broken by distance")
	}
}

// TestCombinePinned holds Combine bit for bit to the served ranking function
// it replaced, DistanceDiscount{Scale: 100}.Combine (ε 1e-9): every want is
// the math.Float64bits that function returned, so a ranked score can only
// change if this table does.
func TestCombinePinned(t *testing.T) {
	for _, tc := range []struct {
		dist, ir float64
		want     uint64
	}{
		{0, 0, 0x3e112e0be826d695},
		{0, 1, 0x3ff000000044b830},
		{0, 1e-300, 0x3e112e0be826d695},
		{0, 5e-324, 0x3e112e0be826d695},
		{1, 0.5, 0x3fdfaee41f7a9c9e},
		{100, 1, 0x3fe000000044b830},
		{50, 2.5, 0x3ffaaaaaaad87acb},
		{1e-09, 1e-09, 0x3e212e0be82619b0},
		{12.345, 3.7, 0x400a58effe1d3d5d},
		{0.1, 0.2, 0x3fc9930d901559b9},
		{250.75, 17.125, 0x4013879285382bc9},
		{1e-12, 7.5, 0x401e000000112db8},
		{1e+06, 1, 0x3f1a3637237b8f5f},
		{1e+300, 10, 0x0244ed8b04701ab0},
		{math.MaxFloat64, 1, 0x00590000006b5fcc},
		{math.Inf(1), 1, 0x0000000000000000},
		{3.5, 5e-324, 0x3e109951ff381359},
		{707.1067811865476, 42, 0x4014d0a9b6f82a20},
		{0.001, 1e-15, 0x3e112e01c61ab13b},
	} {
		if got := math.Float64bits(Combine(tc.dist, tc.ir)); got != tc.want {
			t.Errorf("Combine(%v, %v) = %v (%#016x), want %v (%#016x)",
				tc.dist, tc.ir, math.Float64frombits(got), got, math.Float64frombits(tc.want), tc.want)
		}
	}
}

// TestCapWeightBoundsEveryTFBelowTheCap: a row whose largest term frequency
// is maxTF records TFCap(maxTF), and CapWeight of that cap is at least the
// weight of every term frequency the row can hold — exactly TFWeight(maxTF)
// below saturation, the paper's 1 at and past it and for an unknown cap.
func TestCapWeightBoundsEveryTFBelowTheCap(t *testing.T) {
	if CapWeight(0) != 1 || CapWeight(MaxTFCap) != 1 {
		t.Fatalf("CapWeight(0) = %v, CapWeight(MaxTFCap) = %v, want 1 for both", CapWeight(0), CapWeight(MaxTFCap))
	}
	for maxTF := 1; maxTF <= 1000; maxTF++ {
		c := TFCap(maxTF)
		if want := uint8(min(maxTF, MaxTFCap)); c != want {
			t.Fatalf("TFCap(%d) = %d, want %d", maxTF, c, want)
		}
		if maxTF < MaxTFCap && CapWeight(c) != TFWeight(maxTF) {
			t.Fatalf("CapWeight(TFCap(%d)) = %v, want TFWeight = %v", maxTF, CapWeight(c), TFWeight(maxTF))
		}
		for tf := 1; tf <= maxTF; tf++ {
			if TFWeight(tf) > CapWeight(c) {
				t.Fatalf("tf %d weighs %v, above the cap %d's %v", tf, TFWeight(tf), c, CapWeight(c))
			}
		}
	}
}

// pipelines are the four text pipelines an engine's Config selects.
var pipelines = map[string]*textutil.Analyzer{
	"plain":              nil,
	"stopwords":          {Stopwords: textutil.DefaultStopwords()},
	"stemming":           {Stemming: true},
	"stopwords+stemming": {Stemming: true, Stopwords: textutil.DefaultStopwords()},
}

// rowTFOf records a row's term-frequency summary the way an engine's add
// does.
func rowTFOf(a *textutil.Analyzer, text string) RowTF {
	v := textutil.NewVocabulary()
	terms, counts := v.AddDocWith(a, text)
	return RowTFOf(counts, func(i int) uint64 { return v.Hash(terms[i]) })
}

// TestRowTFWeight: the zero summary keeps the paper's weight of 1; a row
// bounds a term it repeats by its cap's weight, and a term it holds once —
// whatever else it repeats — by TFWeight(1).
func TestRowTFWeight(t *testing.T) {
	var unknown RowTF
	if w := unknown.Weight(ProbeTerm("pool")); w != 1 {
		t.Fatalf("unknown row weighs %v, want 1", w)
	}
	r := rowTFOf(nil, "pool spa pool sauna pool gift gift")
	if r.Cap() != 3 {
		t.Fatalf("cap %d, want 3", r.Cap())
	}
	for _, term := range []string{"pool", "gift"} {
		if !r.MayRepeat(ProbeTerm(term)) || r.Weight(ProbeTerm(term)) != CapWeight(3) {
			t.Fatalf("repeated %q weighs %v, want %v", term, r.Weight(ProbeTerm(term)), CapWeight(3))
		}
	}
	held := 0
	for _, term := range []string{"spa", "sauna", "absent"} {
		if p := ProbeTerm(term); !r.MayRepeat(p) {
			held++
			if r.Weight(p) != TFWeight(1) {
				t.Fatalf("%q held at most once weighs %v, want %v", term, r.Weight(p), TFWeight(1))
			}
		}
	}
	if held == 0 {
		t.Fatal("every term held at most once reads as repeated in a mask of 2 words")
	}
	if once := rowTFOf(nil, "spa pool"); once.Weight(ProbeTerm("pool")) != TFWeight(1) {
		t.Fatalf("a row of single words weighs %v", once.Weight(ProbeTerm("pool")))
	}
}

// FuzzRowTFWeightAdmissible: for any row text and query words, on every
// pipeline, no term — of the row, or a query word normalized — occurs in the
// row, as the pipeline counts it (TermFreqsInto), more often than
// the row's summary allows: its weight is at least TFWeight of that count.
func FuzzRowTFWeightAdmissible(f *testing.F) {
	f.Add("Pool pool POOL\tpool spa", "pool", "spa")
	f.Add("fishing fished fisher the the the", "fishes", "the")
	f.Add("\u212Aelvin kelvin KELVIN\x00kelvin", "Kelvin", "\u212A")
	f.Add("\u0130stanbul istanbul\r\nISTANBUL \u0130", "istanbul", "\u0130")
	f.Add("café CAFÉ x\xffy x\xfey café", "CAFÉ", "x\xfey")
	f.Add(strings.Repeat("a ", 300)+"b", "a", "b")
	f.Fuzz(func(t *testing.T, text, word1, word2 string) {
		if len(text) > 4096 {
			t.Skip("longer than a row needs to be")
		}
		for name, a := range pipelines {
			r := rowTFOf(a, text)
			terms := append(a.Unique(text), a.Keywords([]string{word1, word2})...)
			counts := make([]int, len(terms))
			a.TermFreqsInto(counts, text, terms)
			for i, n := range counts {
				if w := r.Weight(ProbeTerm(terms[i])); w < TFWeight(n) {
					t.Fatalf("%s: %q occurs %d times in %q, weighs %v, bound %v", name, terms[i], n, text, TFWeight(n), w)
				}
			}
		}
	})
}
