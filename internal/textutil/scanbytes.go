package textutil

import (
	"unicode"
	"unicode/utf8"
)

// Byte-slice twins of the scan kernels in scan.go. The candidate filter of
// the read hot path runs over rows still sitting in I/O scratch buffers;
// converting each to a string before scanning would reintroduce exactly the
// per-candidate allocation the kernels exist to remove. Equivalence with
// the string kernels is pinned by tests.

// Rows are almost entirely ASCII, so the kernels classify and fold a byte
// below utf8.RuneSelf from asciiTab and only decode a rune — and consult the
// unicode tables — for the rest. An entry's low seven bits are the byte
// lower-cased (unicode.ToLower of an ASCII rune is ASCII); asciiTokenBit is
// set when the byte is a letter or digit, i.e. part of a token.
const asciiTokenBit = 0x80

var asciiTab = func() (t [utf8.RuneSelf]byte) {
	for c := range t {
		r := rune(c)
		t[c] = byte(unicode.ToLower(r))
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			t[c] |= asciiTokenBit
		}
	}
	return t
}()

// tokenRune is the rune path of the scanners: whether the (non-ASCII or
// invalid) rune at the head of b belongs to a token, and its width. The
// ASCII test stays spelled out in each scan loop — a helper holding both
// arms is over the inlining budget, and a call per byte costs more than the
// table saves.
func tokenRune(b []byte) (tok bool, size int) {
	r, sz := utf8.DecodeRune(b)
	return unicode.IsLetter(r) || unicode.IsDigit(r), sz
}

// tokenFoldEqBytes is tokenFoldEq for a raw byte token.
//
//skvet:hotpath
func tokenFoldEqBytes(tok []byte, term string) bool {
	ti := 0
	for i := 0; i < len(tok); {
		if ti >= len(term) {
			return false
		}
		if c := tok[i]; c < utf8.RuneSelf {
			// An ASCII rune has exactly one encoding, the byte itself, so
			// the term's next rune equals it iff the term's next byte does.
			if asciiTab[c]&^asciiTokenBit != term[ti] {
				return false
			}
			i++
			ti++
			continue
		}
		r, sz := utf8.DecodeRune(tok[i:])
		tr, tsz := utf8.DecodeRuneInString(term[ti:])
		if unicode.ToLower(r) != tr {
			return false
		}
		i += sz
		ti += tsz
	}
	return ti == len(term)
}

// countTokBytes bumps the count of every term the token matches.
//
//skvet:hotpath
func countTokBytes(counts []int, tok []byte, terms []string) {
	for i, term := range terms {
		if tokenFoldEqBytes(tok, term) {
			counts[i]++
		}
	}
}

// CountTermsBytesInto is CountTermsInto for a document in a byte buffer.
//
//skvet:hotpath
func CountTermsBytesInto(counts []int, text []byte, terms []string) {
	for i := range terms {
		counts[i] = 0
	}
	start := -1
	for i := 0; i < len(text); {
		var tok bool
		sz := 1
		if c := text[i]; c < utf8.RuneSelf {
			tok = asciiTab[c]&asciiTokenBit != 0
		} else {
			tok, sz = tokenRune(text[i:])
		}
		if tok {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			countTokBytes(counts, text[start:i], terms)
			start = -1
		}
		i += sz
	}
	if start >= 0 {
		countTokBytes(counts, text[start:], terms)
	}
}

// containsTermsScanBytes is containsTermsScan for a document in a byte
// buffer. Requires 0 < len(terms) < 64.
//
//skvet:hotpath
func containsTermsScanBytes(text []byte, terms []string) bool {
	all := uint64(1)<<len(terms) - 1
	var found uint64
	match := func(tok []byte) bool {
		for i, term := range terms {
			if found&(1<<i) == 0 && tokenFoldEqBytes(tok, term) {
				found |= 1 << i
			}
		}
		return found == all
	}
	start := -1
	for i := 0; i < len(text); {
		var tok bool
		sz := 1
		if c := text[i]; c < utf8.RuneSelf {
			tok = asciiTab[c]&asciiTokenBit != 0
		} else {
			tok, sz = tokenRune(text[i:])
		}
		if tok {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			if match(text[start:i]) {
				return true
			}
			start = -1
		}
		i += sz
	}
	if start >= 0 {
		return match(text[start:])
	}
	return found == all
}

// ContainsTermsBytes is ContainsTerms for a document still in an I/O
// scratch buffer; text must not be retained. Allocation-free on the plain
// pipeline; other pipelines fall back to a string conversion.
//
//skvet:hotpath
func (a *Analyzer) ContainsTermsBytes(text []byte, terms []string) bool {
	if len(terms) == 0 {
		return true
	}
	if a.plain() && len(terms) < 64 {
		return containsTermsScanBytes(text, terms)
	}
	return a.ContainsTerms(string(text), terms)
}

// TermFreqsBytesInto is TermFreqsInto for a document still in an I/O
// scratch buffer; text must not be retained. Allocation-free on the plain
// pipeline; other pipelines fall back to a string conversion.
func (a *Analyzer) TermFreqsBytesInto(counts []int, text []byte, terms []string) {
	if a.plain() {
		CountTermsBytesInto(counts, text, terms)
		return
	}
	a.TermFreqsInto(counts, string(text), terms)
}
