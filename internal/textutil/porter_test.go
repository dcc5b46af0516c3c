package textutil

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestStemCanonicalPairs checks the examples from Porter's 1980 paper.
func TestStemCanonicalPairs(t *testing.T) {
	pairs := map[string]string{
		// Step 1a.
		"caresses": "caress", "ponies": "poni", "ties": "ti",
		"caress": "caress", "cats": "cat",
		// Step 1b.
		"feed": "feed", "agreed": "agre", "plastered": "plaster",
		"bled": "bled", "motoring": "motor", "sing": "sing",
		"conflated": "conflat", "troubled": "troubl", "sized": "size",
		"hopping": "hop", "tanned": "tan", "falling": "fall",
		"hissing": "hiss", "fizzed": "fizz", "failing": "fail",
		"filing": "file",
		// Step 1c.
		"happy": "happi", "sky": "sky",
		// Step 2.
		"relational": "relat", "conditional": "condit",
		"valenci": "valenc", "hesitanci": "hesit",
		"digitizer": "digit", "radicalli": "radic",
		"differentli": "differ", "vileli": "vile",
		"analogousli": "analog", "vietnamization": "vietnam",
		"predication": "predic", "operator": "oper",
		"feudalism": "feudal", "decisiveness": "decis",
		"hopefulness": "hope", "callousness": "callous",
		"formaliti": "formal", "sensitiviti": "sensit",
		"sensibiliti": "sensibl",
		// Step 3.
		"triplicate": "triplic", "formative": "form", "formalize": "formal",
		"electriciti": "electr", "electrical": "electr",
		"hopeful": "hope", "goodness": "good",
		// Step 4.
		"revival": "reviv", "allowance": "allow", "inference": "infer",
		"airliner": "airlin", "gyroscopic": "gyroscop",
		"adjustable": "adjust", "defensible": "defens",
		"irritant": "irrit", "replacement": "replac",
		"adjustment": "adjust", "dependent": "depend",
		"adoption": "adopt", "communism": "commun",
		"activate": "activ", "angulariti": "angular",
		"effective": "effect", "bowdlerize": "bowdler",
		// Step 5.
		"probate": "probat", "rate": "rate", "cease": "ceas",
		"controll": "control", "roll": "roll",
		// Short words unchanged.
		"a": "a", "be": "be", "ox": "ox",
	}
	for in, want := range pairs {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestStemConflatesInflections is the property the feature exists for.
func TestStemConflatesInflections(t *testing.T) {
	groups := [][]string{
		{"fish", "fishing", "fished"},
		{"connect", "connected", "connecting", "connection", "connections"},
		{"swim", "swims"},
		{"run", "running", "runs"},
	}
	for _, g := range groups {
		base := Stem(g[0])
		for _, w := range g[1:] {
			if Stem(w) != base {
				t.Errorf("Stem(%q) = %q, want %q (conflation with %q)", w, Stem(w), base, g[0])
			}
		}
	}
}

func TestStemIdempotentOnItsOutputForCommonWords(t *testing.T) {
	// Porter is not idempotent in general, but for a large natural set the
	// second application must never lengthen the word or panic.
	words := strings.Fields(`the quick brown foxes jumped over lazily sleeping
		dogs while photographers documented everything happening repeatedly
		organizations internationalization conditionally`)
	for _, w := range words {
		s1 := Stem(w)
		s2 := Stem(s1)
		if len(s2) > len(s1) {
			t.Errorf("Stem(Stem(%q)) = %q longer than %q", w, s2, s1)
		}
	}
}

func TestQuickStemNeverPanicsOrGrows(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if len(Stem(tok)) > len(tok) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMeasure(t *testing.T) {
	tests := []struct {
		w string
		m int
	}{
		{"tr", 0}, {"ee", 0}, {"tree", 0}, {"y", 0}, {"by", 0},
		{"trouble", 1}, {"oats", 1}, {"trees", 1}, {"ivy", 1},
		{"troubles", 2}, {"private", 2}, {"oaten", 2}, {"orrery", 2},
	}
	for _, tt := range tests {
		if got := measure([]byte(tt.w), len(tt.w)); got != tt.m {
			t.Errorf("measure(%q) = %d, want %d", tt.w, got, tt.m)
		}
	}
}

func TestAnalyzerPipeline(t *testing.T) {
	plain := &Analyzer{}
	if got := plain.Tokens("The Fishing Boats"); strings.Join(got, " ") != "the fishing boats" {
		t.Errorf("plain tokens = %v", got)
	}

	stop := &Analyzer{Stopwords: DefaultStopwords()}
	if got := stop.Tokens("the fishing boats"); strings.Join(got, " ") != "fishing boats" {
		t.Errorf("stopword tokens = %v", got)
	}

	full := &Analyzer{Stopwords: DefaultStopwords(), Stemming: true}
	if got := full.Tokens("the fishing boats are running"); strings.Join(got, " ") != "fish boat run" {
		t.Errorf("full pipeline = %v", got)
	}

	// Unique preserves first occurrence under the pipeline.
	if got := full.Unique("fishing fished fisher boats"); strings.Join(got, " ") != "fish boat" {
		// "fisher" stems to "fisher" per Porter (m=1, er needs m>1).
		if strings.Join(got, " ") != "fish fisher boat" {
			t.Errorf("Unique = %v", got)
		}
	}

	// Keyword normalization matches document processing.
	if full.Keyword("Fishing") != "fish" {
		t.Errorf("Keyword = %q", full.Keyword("Fishing"))
	}
	if full.Keyword("the") != "" {
		t.Error("stopword keyword should dissolve")
	}
	if got := full.Keywords([]string{"Fishing", "FISHED", "the", "boats"}); strings.Join(got, " ") != "fish boat" {
		t.Errorf("Keywords = %v", got)
	}

	// Containment under stemming: inflection-insensitive.
	if !full.ContainsTerms("boats fishing daily", full.Keywords([]string{"boat", "fish"})) {
		t.Error("stemmed containment failed")
	}
	if full.ContainsTerms("boats fishing daily", full.Keywords([]string{"submarine"})) {
		t.Error("false containment")
	}
	// Plain analyzer: no conflation.
	if plain.ContainsTerms("boats fishing daily", plain.Keywords([]string{"boat"})) {
		t.Error("plain analyzer conflated inflections")
	}
}

func TestNilAnalyzerBehavesPlain(t *testing.T) {
	var a *Analyzer
	if got := a.Tokens("Hello World"); strings.Join(got, " ") != "hello world" {
		t.Errorf("nil analyzer tokens = %v", got)
	}
	if !a.ContainsTerms("hello world", []string{"hello"}) {
		t.Error("nil analyzer containment")
	}
	if got := a.TermFreqs("x x y"); got["x"] != 2 || got["y"] != 1 {
		t.Errorf("nil analyzer tf = %v", got)
	}
}
