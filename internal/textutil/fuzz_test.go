package textutil

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// FuzzTokenize: the tokenizer must never panic, always emit non-empty
// lowercase alphanumeric tokens, and agree with ContainsAll on its own
// output.
func FuzzTokenize(f *testing.F) {
	f.Add("wireless Internet, pool, golf course")
	f.Add("ünïcödé wörds and 123 numbers")
	f.Add("\x00\xff\xfe broken utf8 \xc3\x28")
	f.Add(strings.Repeat("pool ", 1000))
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		tokens := Tokenize(text)
		for _, tok := range tokens {
			if tok == "" {
				t.Fatal("empty token")
			}
			if tok != strings.ToLower(tok) {
				t.Fatalf("token %q not lowercase", tok)
			}
		}
		uniq := (*Analyzer)(nil).Unique(text)
		if len(uniq) > len(tokens) {
			t.Fatal("more unique tokens than tokens")
		}
		if !ContainsAll(text, uniq) {
			t.Fatal("document does not contain its own tokens")
		}
		// Tokenization is idempotent: tokenizing the joined tokens yields
		// the same tokens.
		again := Tokenize(strings.Join(tokens, " "))
		if len(again) != len(tokens) {
			t.Fatalf("not idempotent: %d vs %d tokens", len(again), len(tokens))
		}
		for i := range tokens {
			if again[i] != tokens[i] {
				t.Fatalf("token %d changed: %q vs %q", i, tokens[i], again[i])
			}
		}
	})
}

// tokenizeRunes is the definition of a token: runs of letter and digit
// runes, each rune lower-cased, built a rune at a time. The walker behind
// Tokenize, Tokens, Unique and Vocabulary.AddDocWith is a fast path of it,
// held to it by FuzzTokenizeMatchesRunePath.
func tokenizeRunes(text string) []string {
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

// tokensRunes is Analyzer.Tokens over tokenizeRunes: stopwords dropped,
// then every surviving token stemmed.
func tokensRunes(a *Analyzer, text string) []string {
	var out []string
	for _, tok := range tokenizeRunes(text) {
		if a != nil {
			if _, stop := a.Stopwords[tok]; stop {
				continue
			}
			if a.Stemming {
				tok = Stem(tok)
			}
		}
		out = append(out, tok)
	}
	return out
}

// uniqueRunes is Analyzer.Unique over tokensRunes, deduplicated with a map.
func uniqueRunes(a *Analyzer, text string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, tok := range tokensRunes(a, text) {
		if !seen[tok] {
			seen[tok] = true
			out = append(out, tok)
		}
	}
	return out
}

// FuzzTokenizeMatchesRunePath: Tokenize, Tokens on the stopword and the
// stemming pipelines, Unique and Keyword must produce exactly what the
// rune-at-a-time reference does, on arbitrary bytes — invalid UTF-8, mixed
// case, runes that lower-case to ASCII (U+212A, U+0130) or to a longer
// encoding, separators only.
func FuzzTokenizeMatchesRunePath(f *testing.F) {
	f.Add("Wireless INTERNET, pool; golf-course a1")
	f.Add("\x00\xff\xfe broken \xc3\x28 utf8 caf\xc3\xa9")
	f.Add("\u212Aitten KITTEN \u212A")
	f.Add("\u0130stanbul ISTANBUL i\u0307")
	f.Add("\u023A\u023Aa \u2C65")
	f.Add("")
	f.Add(" ,.;-- \t\n!! ")
	f.Add("The fishing, the fished FISH and pools; the connection's connections")
	f.Add("Café ZÜRICH straße 東京 ４２ ǅemal")
	f.Add(strings.Repeat("Pool spa ", 40) + "café")
	pipelines := []struct {
		name string
		a    *Analyzer
	}{
		{"plain", nil},
		{"stopwords", &Analyzer{Stopwords: DefaultStopwords()}},
		{"stemming", &Analyzer{Stemming: true}},
		{"both", &Analyzer{Stopwords: DefaultStopwords(), Stemming: true}},
	}
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := Tokenize(text), tokenizeRunes(text); !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", text, got, want)
		}
		for _, p := range pipelines {
			if got, want := p.a.Tokens(text), tokensRunes(p.a, text); !slices.Equal(got, want) {
				t.Fatalf("%s Tokens(%q) = %q, want %q", p.name, text, got, want)
			}
			if got, want := p.a.Unique(text), uniqueRunes(p.a, text); !slices.Equal(got, want) {
				t.Fatalf("%s Unique(%q) = %q, want %q", p.name, text, got, want)
			}
			want := ""
			if toks := tokensRunes(p.a, text); len(toks) > 0 {
				want = toks[0]
			}
			if got := p.a.Keyword(text); got != want {
				t.Fatalf("%s Keyword(%q) = %q, want %q", p.name, text, got, want)
			}
		}
	})
}

// FuzzByteKernelsMatchRunePath: the byte kernels take the token kernel for
// ASCII and the rune path for everything else, and the string
// entry points (ContainsTerms, TermFreqsInto) run them over a view of the
// string. On arbitrary bytes — invalid UTF-8, mixed case, terms that are
// not even normalized — every entry must agree exactly with counting the
// tokens of tokenizeRunes, the definition of a plain-pipeline term.
func FuzzByteKernelsMatchRunePath(f *testing.F) {
	f.Add([]byte("Wireless INTERNET, pool; golf-course a1"), "internet", "a1")
	f.Add([]byte("Café CAFÉ café \xc3 caf\xc3\xa9!"), "café", "caf")
	f.Add([]byte("\x00\xff\xfe broken \xc3\x28 utf8 İstanbul ǅ"), "i̇stanbul", "ǆ")
	f.Add([]byte("K k K"), "k", "\xff")
	f.Add([]byte(""), "", "x")
	f.Add([]byte("POOL,pool Pool"), "pool", "Pool")
	f.Add([]byte("a-b a b"), "a-b", "b")
	f.Add([]byte("po"), "pool", "")
	f.Add([]byte("aaa aa aaaa"), "aa", "a")
	f.Add([]byte("pool spa pool"), "pool", "spa")
	f.Add([]byte("pool"), "pool", "poo")
	f.Add([]byte("a1 1a 11 1\x00pool\xffpool"), "11", "pool")
	f.Add([]byte(strings.Repeat("pool spa ", 300)+"spa\xff"), "spa", "pool")
	f.Add([]byte("Kitten \u212Aitten KITTEN"), "kitten", "\u212Aitten")
	f.Add([]byte("İstanbul Istanbul"), "istanbul", "i")
	f.Add([]byte("spa a pool; spa"), "pool", "spa")
	f.Add([]byte(strings.Repeat(" ", 62)+"pool spa"), "pool", "spa")
	f.Add([]byte(strings.Repeat(" ", 59)+"whirlpool spa"), "pool", "whirlpool")
	f.Add([]byte(strings.Repeat(" ", 62)+"poolé"), "pool", "pool")
	f.Add([]byte("internetwork INTERNETWORX InterNetWork internetworks"), "internetwork", "internetworx")
	f.Add([]byte("pool"+strings.Repeat(" ", 57)+"spa"), "pool", "spa")
	f.Add([]byte("POOL Pool pOoL p00l P00L 24H 24h 24"), "p00l", "24h")
	f.Add([]byte("pool pool\x00spa"), "pool ", "pool\x00")
	f.Add([]byte("spa pool POOL"), "pool", "pool")
	f.Add([]byte(strings.Repeat("pool ", 20)+"\u212Aitten"), "kitten", "pool")
	f.Fuzz(func(t *testing.T, text []byte, t1, t2 string) {
		var plain *Analyzer
		terms := []string{t1, t2}
		want := tokenCounts(string(text), terms)
		got, str := make([]int, 2), make([]int, 2)
		CountTermsBytesInto(got, text, terms)
		plain.TermFreqsInto(str, string(text), terms)
		if want[0] != got[0] || want[1] != got[1] || want[0] != str[0] || want[1] != str[1] {
			t.Fatalf("counts of %q in %q: rune path %v, byte kernels %v, string entry %v", terms, text, want, got, str)
		}
		w := allPositive(want)
		if g, s := plain.ContainsTermsBytes(text, terms), plain.ContainsTerms(string(text), terms); g != w || s != w {
			t.Fatalf("contains %q in %q: rune path %v, byte kernels %v, string entry %v", terms, text, w, g, s)
		}
		if w, g := foldEqRunes(string(text), t1), tokenFoldEqBytes(text, t1); w != g {
			t.Fatalf("fold-equal %q vs %q: rune-by-rune %v, byte kernels %v", text, t1, w, g)
		}
	})
}

// foldEqRunes is tokenFoldEqBytes spelled over []rune conversions: the
// token's runes lower-cased equal the term's, an invalid byte decoding to
// U+FFFD on both sides.
func foldEqRunes(tok, term string) bool {
	tr, mr := []rune(tok), []rune(term)
	if len(tr) != len(mr) {
		return false
	}
	for i, r := range tr {
		if unicode.ToLower(r) != mr[i] {
			return false
		}
	}
	return true
}
