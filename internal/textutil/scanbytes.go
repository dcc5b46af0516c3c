package textutil

import (
	"encoding/binary"
	"math/bits"
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

// Rows are almost entirely ASCII, so the byte-at-a-time scans classify and
// fold a byte below utf8.RuneSelf from asciiTab and only decode a rune —
// and consult the unicode tables — for the rest. An entry's low seven bits
// are the byte lower-cased (unicode.ToLower of an ASCII rune is ASCII);
// asciiTokenBit is set when the byte is a letter or digit, i.e. part of a
// token.
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
// terms[i] in text under plain tokenization, allocation-free. Terms must
// already be normalized (lower-case single tokens); counts must have at
// least len(terms) elements.
//
// An all-ASCII row is counted by the token kernel (scanTokens), eight terms
// to a pass, without a folded copy. A row holding any byte ≥ 0x80 takes the
// rune scan (countTermsRunes), which stays exact there: a non-ASCII rune can
// lower-case to an ASCII letter — U+212A KELVIN SIGN to 'k', U+0130 to 'i' —
// so a byte comparison over such text would miss tokens.
//
//skvet:hotpath
func CountTermsBytesInto(counts []int, text []byte, terms []string) {
	for c := 0; c < len(terms); c += keyChunk {
		pass := terms[c:min(c+keyChunk, len(terms))]
		n := counts[c : c+len(pass)]
		clear(n)
		if !scanTokens(text, pass, n, false) {
			countTermsRunes(counts, text, terms)
			return
		}
	}
}

// containsTermsBytes reports whether every term occurs in text under plain
// tokenization. The token kernel stops at the token that completes a pass's
// terms; a row holding a byte ≥ 0x80 is counted by the rune scan instead.
//
//skvet:hotpath
func containsTermsBytes(text []byte, terms []string) bool {
	var counts [keyChunk]int
	for c := 0; c < len(terms); c += keyChunk {
		pass := terms[c:min(c+keyChunk, len(terms))]
		n := counts[:len(pass)]
		clear(n)
		if !scanTokens(text, pass, n, true) {
			countTermsRunes(n, text, pass)
		}
		for _, x := range n {
			if x == 0 {
				return false
			}
		}
	}
	return true
}

// keyChunk is how many terms one pass of the token kernel (scanTokens)
// tests; a query with more takes one pass per eight of them.
const keyChunk = 8

// SWAR constants: a byte's value repeated in every lane of a word.
const (
	lanes  = 0x0101010101010101
	hiBits = 0x80 * lanes
	fold   = 0x20 * lanes
)

// letterHi and tokenHi mark lanes of an ASCII word (no byte ≥ 0x80) by
// their high bit: letterHi each letter's, tokenHi each letter's or
// digit's — each token byte's. The letters are the bytes that OR 0x20 into
// 'a'…'z', the digits '0'…'9'; adding 0x80−lo to a lane sets its high bit
// iff the lane is ≥ lo, and no sum carries into the next lane (0x7f + 0x50
// < 0x100). OR-ing 0x20 into a token byte is its exact lower-casing:
// letters fold, and digits already hold the bit.
func letterHi(w uint64) uint64 {
	l := w | fold
	return (l + (0x80-'a')*lanes) &^ (l + (0x80-'z'-1)*lanes) & hiBits
}

func tokenHi(w uint64) uint64 {
	return letterHi(w) | (w+(0x80-'0')*lanes)&^(w+(0x80-'9'-1)*lanes)&hiBits
}

// blockTokens returns the token bitmap of the 64-byte block b — bit i set
// when byte i is a token byte — and the OR of its words, whose high bits
// show any byte ≥ 0x80. Word j's high bits, shifted down to bit j of each
// lane, make an 8×8 bit matrix (lane i, bit j: byte 8j+i); three
// delta-swaps transpose it into the bitmap (Hacker's Delight, 7-3).
func blockTokens(b []byte) (tok, any uint64) {
	b = b[:64]
	w0, w1 := binary.LittleEndian.Uint64(b[0:]), binary.LittleEndian.Uint64(b[8:])
	w2, w3 := binary.LittleEndian.Uint64(b[16:]), binary.LittleEndian.Uint64(b[24:])
	w4, w5 := binary.LittleEndian.Uint64(b[32:]), binary.LittleEndian.Uint64(b[40:])
	w6, w7 := binary.LittleEndian.Uint64(b[48:]), binary.LittleEndian.Uint64(b[56:])
	x := tokenHi(w0)>>7 | tokenHi(w1)>>6 | tokenHi(w2)>>5 | tokenHi(w3)>>4 |
		tokenHi(w4)>>3 | tokenHi(w5)>>2 | tokenHi(w6)>>1 | tokenHi(w7)
	t := (x ^ x>>7) & 0x00aa00aa00aa00aa
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000cccc0000cccc
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000f0f0f0f0
	x ^= t ^ t<<28
	return x, w0 | w1 | w2 | w3 | w4 | w5 | w6 | w7
}

// scanTokens is the token kernel: one pass over text for terms, at most
// keyChunk of them. It adds to n[i] every token of text equal to terms[i]
// and returns true, or false as soon as it meets a byte ≥ 0x80: then the
// row needs the rune scan and n is partial. With stop set it returns once
// every term has been seen.
//
// Each term is kept as its first ≤ 8 bytes in a little-endian word, with
// the mask of their lanes, and its length; a filter holds bit c&63 of each
// term's first byte c. A term needs no check of its own: every byte of a
// token OR 0x20 is a lower-case ASCII letter or digit, so a term holding
// anything else — a capital, a separator, a byte ≥ 0x80 — equals no token
// of an ASCII row, and an empty one has no first byte and the length of
// none.
//
// The row goes 64 bytes at a time. A block's token bitmap gives its token
// starts, tok &^ (tok<<1 | carry), carry the previous block's last bit.
// Only a start whose byte passes the first-byte filter is compared: the
// token's length is its run of set bits (continued byte by byte past the
// block), and a term of that length matches when the token's first ≤ 8
// bytes OR 0x20 equal its word under its mask, and the rest byte by byte.
//
//skvet:hotpath
func scanTokens(text []byte, terms []string, n []int, stop bool) bool {
	var word, mask [keyChunk]uint64
	var size [keyChunk]int
	var first uint64
	for i, term := range terms {
		head := min(len(term), 8)
		var w uint64
		for j := head - 1; j >= 0; j-- {
			w = w<<8 | uint64(term[j])
		}
		word[i], mask[i], size[i] = w, uint64(1)<<(8*head)-1, len(term)
		if term != "" {
			first |= 1 << (term[0] & 63)
		}
	}
	all := uint64(1)<<len(terms) - 1
	var seen, carry uint64
	for base := 0; base < len(text); base += 64 {
		var tok, any uint64
		if rest := text[base:]; len(rest) >= 64 {
			tok, any = blockTokens(rest)
		} else {
			var pad [64]byte // zeros: no token, no byte ≥ 0x80
			copy(pad[:], rest)
			tok, any = blockTokens(pad[:])
		}
		if any&hiBits != 0 {
			return false
		}
		// The first-byte test sets a bit rather than taking a branch: which
		// starts pass is as good as random.
		var cand uint64
		for starts := tok &^ (tok<<1 | carry); starts != 0; starts &= starts - 1 {
			b := bits.TrailingZeros64(starts)
			cand |= (first >> ((text[base+b] | 0x20) & 63) & 1) << b
		}
		carry = tok >> 63
		for ; cand != 0; cand &= cand - 1 {
			b := bits.TrailingZeros64(cand)
			s := base + b
			tsize := bits.TrailingZeros64(^(tok >> b))
			if b+tsize == 64 {
				run, open := asciiTokenRun(text[base+64:])
				if open {
					continue // a byte ≥ 0x80 ends the token: the rune scan decides
				}
				tsize += run
			}
			w := load8(text, s) | fold
			for i, term := range terms {
				if size[i] != tsize || w&mask[i] != word[i] {
					continue
				}
				if tsize > 8 && !foldTailEq(text[s+8:s+tsize], term[8:]) {
					continue
				}
				n[i]++
				if seen |= 1 << i; stop && seen == all {
					return true
				}
			}
		}
	}
	return true
}

// asciiTokenRun returns how many bytes at the head of b are ASCII letters or
// digits, and open true when the byte that ends the run is ≥ 0x80.
func asciiTokenRun(b []byte) (run int, open bool) {
	for run < len(b) {
		c := b[run]
		if c >= utf8.RuneSelf {
			return run, true
		}
		if asciiTab[c]&asciiTokenBit == 0 {
			break
		}
		run++
	}
	return run, false
}

// load8 returns the eight bytes of b from i as a little-endian word, the
// lanes past the end of b zero.
func load8(b []byte, i int) uint64 {
	if i+8 <= len(b) {
		return binary.LittleEndian.Uint64(b[i:])
	}
	var w uint64
	for j := len(b) - 1; j >= i; j-- {
		w = w<<8 | uint64(b[j])
	}
	return w
}

// foldTailEq reports whether the token bytes tok, lower-cased by OR-ing
// 0x20, equal term, which is as long.
func foldTailEq(tok []byte, term string) bool {
	for i, c := range tok {
		if c|0x20 != term[i] {
			return false
		}
	}
	return true
}

// countTermsRunes is the kernels' scan of a row holding a byte ≥ 0x80: it
// walks the tokens, decoding a rune wherever a byte is not ASCII, and
// compares each token with every term.
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

// ContainsTermsBytes is ContainsTerms for a document still in an I/O
// scratch buffer; text must not be retained. Allocation-free on the plain
// pipeline; other pipelines fall back to a string conversion.
//
//skvet:hotpath
func (a *Analyzer) ContainsTermsBytes(text []byte, terms []string) bool {
	if a.plain() {
		return containsTermsBytes(text, terms)
	}
	return a.ContainsTerms(string(text), terms)
}
