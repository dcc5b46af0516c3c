// Package sigfile implements superimposed-coding signature files, the text
// access method of Faloutsos & Christodoulakis [FC84] that the IR²-Tree
// grafts onto the R-Tree.
//
// A signature is an m-bit array. Each word of a document sets k pseudo-random
// bit positions (k = BitsPerWord); the document's signature is the bitwise OR
// ("superimposition") of its words' signatures. A document *may* contain a
// query word only if the query word's bits are all set in the document
// signature; a clear bit proves absence, so signatures never produce false
// negatives, only false positives.
//
// In the IR²-Tree the signature of an interior node is the superimposition of
// its children's signatures, so a node signature stands in for every document
// in its subtree; a failed match prunes the whole subtree during search.
//
// The package also provides the optimal-length design rule [MC94] used by the
// Multi-level IR²-Tree: for a signature that will absorb D distinct words at
// k bits each, the false-positive probability is minimized when about half
// the bits are set, which happens at m = k·D / ln 2 bits.
//
// A non-leaf level may have no signature at all: a Config of length 0, whose
// signatures are empty, set no bit, and match everything. A level whose
// entries all hold nearly every word is given one, since a signature there
// can never prune.
package sigfile

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
)

// Signature is an m-bit superimposed code stored as bytes (bit i lives in
// byte i/8, mask 1<<(i%8)). The byte representation serializes directly into
// disk blocks, and the paper reports signature lengths in bytes (189 B for
// Hotels, 8 B for Restaurants).
type Signature []byte

// Config fixes the two design parameters of a signature scheme. Signatures
// from different Configs are not comparable.
type Config struct {
	// LengthBytes is the signature length in bytes (m = 8·LengthBytes bits).
	LengthBytes int
	// BitsPerWord is k, the number of bit positions each word sets.
	BitsPerWord int
}

// DefaultBitsPerWord is the k used throughout the experiments when not
// stated otherwise.
const DefaultBitsPerWord = 4

// Validate reports whether the configuration is usable for the entries at
// the given tree level: a length of 0, no signature, only above the leaves.
func (c Config) Validate(level int) error {
	if c.LengthBytes < 0 || (c.LengthBytes == 0 && level == 0) {
		return fmt.Errorf("sigfile: signature length %d at level %d (0 is allowed only above the leaves)",
			c.LengthBytes, level)
	}
	if c.BitsPerWord <= 0 {
		return fmt.Errorf("sigfile: non-positive bits per word %d", c.BitsPerWord)
	}
	return nil
}

// Bits returns the signature length in bits.
func (c Config) Bits() int { return c.LengthBytes * 8 }

// New returns an all-zero signature of the configured length.
func (c Config) New() Signature { return make(Signature, c.LengthBytes) }

// hashPair derives two independent 64-bit hash values from a word, used for
// double hashing: bit_i = (h1 + i·h2) mod m.
func hashPair(word string) (h1, h2 uint64) {
	f := fnv.New64a()
	f.Write([]byte(word)) //nolint:errcheck // fnv never fails
	h1 = f.Sum64()
	h2 = h1>>33 | 1 // odd, so it cycles through all residues of any m
	return h1, h2
}

// SetWord sets word's k bit positions in s (none at length 0). The word
// should already be normalized (see textutil.Analyzer.Keyword); signatures
// are byte-exact on the input string.
func (c Config) SetWord(s Signature, word string) {
	m := uint64(c.Bits())
	if m == 0 {
		return
	}
	h1, h2 := hashPair(word)
	for i := 0; i < c.BitsPerWord; i++ {
		bit := (h1 + uint64(i)*h2) % m
		s[bit/8] |= 1 << (bit % 8)
	}
}

// WordSignature returns the signature of a single word.
func (c Config) WordSignature(word string) Signature {
	s := c.New()
	c.SetWord(s, word)
	return s
}

// WordSig64 is MakeSig64(c.WordSignature(word)) built straight into word
// form, in the words of prev when they have room for the signature's full
// words: a query that keeps its keyword signatures builds them again
// without allocating. The result aliases prev's words, so prev must not be
// used afterwards.
func (c Config) WordSig64(prev Sig64, word string) Sig64 {
	full := prev.full
	nf := c.LengthBytes / 8
	if cap(full) < nf {
		full = make([]uint64, nf)
	}
	v := Sig64{n: c.LengthBytes, full: full[:nf]}
	clear(v.full)
	m := uint64(c.Bits())
	if m == 0 {
		return v
	}
	h1, h2 := hashPair(word)
	for i := 0; i < c.BitsPerWord; i++ {
		bit := (h1 + uint64(i)*h2) % m
		if w := bit / 64; w < uint64(nf) {
			v.full[w] |= 1 << (bit % 64)
		} else {
			v.tail |= 1 << (bit % 64)
		}
	}
	return v
}

// DocSignature returns the superimposition of the given words' signatures —
// the signature stored with an object in an IR²-Tree leaf.
func (c Config) DocSignature(words []string) Signature {
	s := c.New()
	for _, w := range words {
		c.SetWord(s, w)
	}
	return s
}

// Superimpose ORs src into dst in place. Both must have equal length; it
// panics otherwise, since mixing signature lengths is a logic error.
func Superimpose(dst, src Signature) {
	if len(dst) != len(src) {
		//skvet:ignore nopanic documented invariant: mixed signature lengths are a caller logic error
		panic(fmt.Sprintf("sigfile: superimpose length mismatch %d vs %d", len(dst), len(src)))
	}
	superimposeWords(dst, src)
}

// ErrLengthMismatch is returned by the checked signature operations when two
// signatures of different lengths meet — the symptom of a corrupt or
// misframed on-disk aux payload.
var ErrLengthMismatch = errors.New("sigfile: signature length mismatch")

// SuperimposeChecked ORs src into dst like Superimpose but returns
// ErrLengthMismatch instead of panicking. Use it on signatures decoded from
// disk, where a length mismatch means corruption rather than a programming
// error.
func SuperimposeChecked(dst, src Signature) error {
	if len(dst) != len(src) {
		return fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(dst), len(src))
	}
	superimposeWords(dst, src)
	return nil
}

// Matches reports whether a document (or subtree) with signature s may
// contain everything described by query signature q — i.e. every set bit of
// q is set in s. This is the "s matches w" test of IR2NearestNeighbor
// (paper Figure 8, lines 5 and 9). It panics on length mismatch.
func Matches(s, q Signature) bool {
	if len(s) != len(q) {
		//skvet:ignore nopanic documented invariant: mixed signature lengths are a caller logic error
		panic(fmt.Sprintf("sigfile: match length mismatch %d vs %d", len(s), len(q)))
	}
	return matchesWords(s, q)
}

// Equal reports whether two signatures are bit-identical.
func (s Signature) Equal(t Signature) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s Signature) Clone() Signature {
	t := make(Signature, len(s))
	copy(t, s)
	return t
}

// IsZero reports whether no bit is set.
func (s Signature) IsZero() bool {
	for _, b := range s {
		if b != 0 {
			return false
		}
	}
	return true
}

// String renders the signature as hex for debugging.
func (s Signature) String() string { return fmt.Sprintf("%x", []byte(s)) }

// OptimalBits returns the signature length in bits that minimizes the
// false-positive rate for a signature absorbing distinctWords words at k
// bits per word, per the classic design rule [MC94]: m = k·D / ln 2,
// which makes the expected density ≈ 1/2. The result is at least 8 bits.
func OptimalBits(distinctWords, k int) int {
	m := int(math.Ceil(float64(k*distinctWords) / math.Ln2))
	if m < 8 {
		m = 8
	}
	return m
}

// OptimalLengthBytes returns OptimalBits rounded up to whole bytes.
func OptimalLengthBytes(distinctWords, k int) int {
	return (OptimalBits(distinctWords, k) + 7) / 8
}
