package textutil

import (
	"bytes"
	"encoding/binary"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// This file holds the allocation-free scanning kernels of the read path:
// counting and membership-testing already-normalized query terms against a
// document without materializing its tokens. Tokenize builds a string per
// token — fine for indexing, but the candidate filters run per loaded row.
// The kernels take bytes, because the hot filters run over rows still
// sitting in I/O scratch buffers; a caller holding a string passes
// viewBytes of it instead of a copy. FuzzByteKernelsMatchRunePath holds
// every entry point, string and byte, to counting the tokens of the rune
// reference (tokenizeRunes, in the tests).

// viewBytes returns the bytes of s without copying them. The kernels only
// read their text, so the view never outlives the call that takes it and
// nothing writes through it.
func viewBytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

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

// tokenFoldEqBytes reports whether the raw token equals the (already
// lower-case) term after per-rune lower-casing — the same normalization
// the tokenizer applies, without building the lowered string.
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

// CountTermsBytesInto sets counts[i] to the number of occurrences of
// terms[i] in text under plain tokenization, without allocating once fold
// has grown. Terms must already be normalized (lower-case single tokens);
// counts must have at least len(terms) elements. fold is caller-owned
// working space, grown on first use and reused after.
//
// An all-ASCII document is lower-cased into fold in one pass, and each term
// is then counted with a substring search (countTokenASCII) instead of
// comparing it against every token. A document holding any byte ≥ 0x80
// takes the rune scan (countTermsRunes), which stays exact there: a
// non-ASCII rune can lower-case to an ASCII letter — U+212A KELVIN SIGN to
// 'k', U+0130 to 'i' — so a byte search over such text would miss tokens.
//
//skvet:hotpath
func CountTermsBytesInto(counts []int, text []byte, terms []string, fold *[]byte) {
	n := len(text)
	need := n
	for _, term := range terms {
		need = max(need, n+len(term))
	}
	if cap(*fold) < need {
		//skvet:ignore hotalloc one-time scratch warm-up, reused by every later call through the same fold
		*fold = make([]byte, need)
	}
	// The folded text, then room for the term being searched: bytes.Index
	// takes the term as a []byte, and converting a string term would
	// allocate for any term longer than the compiler's 32-byte stack buffer.
	buf := (*fold)[:need]
	if !lowerASCII(buf[:n], text) {
		countTermsRunes(counts, text, terms)
		return
	}
	for i, term := range terms {
		counts[i] = countTokenASCII(buf[:n], buf[n:n+copy(buf[n:], term)])
	}
}

// lowerASCII writes src lower-cased into dst, which is as long as src, and
// reports whether src is all ASCII: it stops at the first word holding a
// byte that is not.
//
// Eight bytes go at a time. In a word of ASCII bytes, adding 0x3f to each
// byte sets its high bit iff the byte is ≥ 'A', adding 0x25 iff it is > 'Z',
// and no sum carries into the next byte (0x7f + 0x3f < 0x100); the bytes
// with the first bit and not the second are the capitals, and shifting that
// bit down to 0x20 lower-cases them — what asciiTab does one byte at a time.
//
//skvet:hotpath
func lowerASCII(dst, src []byte) bool {
	const hi = 0x8080808080808080
	dst = dst[:len(src)]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		w := binary.LittleEndian.Uint64(src[i:])
		if w&hi != 0 {
			return false
		}
		upper := (w + 0x3f3f3f3f3f3f3f3f) &^ (w + 0x2525252525252525) & hi
		binary.LittleEndian.PutUint64(dst[i:], w|upper>>2)
	}
	for ; i < len(src); i++ {
		c := src[i]
		if c >= utf8.RuneSelf {
			return false
		}
		dst[i] = asciiTab[c] &^ asciiTokenBit
	}
	return true
}

// countTokenASCII counts the tokens of low, lower-cased ASCII text, that
// equal term: the occurrences of term with no letter or digit on either
// side. Like tokenFoldEqBytes, a term that is empty or holds anything but
// lower-case ASCII letters and digits equals no token.
//
//skvet:hotpath
func countTokenASCII(low, term []byte) int {
	if len(term) == 0 {
		return 0
	}
	for _, c := range term {
		if c >= utf8.RuneSelf || asciiTab[c] != c|asciiTokenBit {
			return 0
		}
	}
	// The search resumes after each occurrence, matched or not: every byte
	// of an occurrence is a letter or digit, so no token starts inside one.
	n := 0
	for i := 0; ; {
		j := bytes.Index(low[i:], term)
		if j < 0 {
			return n
		}
		start, end := i+j, i+j+len(term)
		if (start == 0 || !isTokenASCII(low[start-1])) && (end == len(low) || !isTokenASCII(low[end])) {
			n++
		}
		i = end
	}
}

// isTokenASCII reports whether the ASCII byte c is a letter or digit.
func isTokenASCII(c byte) bool { return asciiTab[c&0x7f]&asciiTokenBit != 0 }

// countTermsRunes is CountTermsBytesInto's scan for any document, and the
// plain TermFreqsInto: it walks the tokens, decoding a rune wherever a byte
// is not ASCII, and compares each token with every term.
//
//skvet:hotpath
func countTermsRunes(counts []int, text []byte, terms []string) {
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

// containsTermsScanBytes reports whether every term occurs in text under
// plain tokenization, scanning the document once and stopping as soon as
// the last term is found. Requires 0 < len(terms) < 64 (the found-set is a
// bitmask).
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
// scratch buffer; text must not be retained. fold is CountTermsBytesInto's
// working space. Allocation-free on the plain pipeline once fold is grown;
// other pipelines fall back to a string conversion.
func (a *Analyzer) TermFreqsBytesInto(counts []int, text []byte, terms []string, fold *[]byte) {
	if a.plain() {
		CountTermsBytesInto(counts, text, terms, fold)
		return
	}
	a.TermFreqsInto(counts, string(text), terms)
}
