// Word-at-a-time signature kernels. The byte representation of Signature is
// the on-disk format and cannot change, but the hot operations — the AND-match
// of IR2NearestNeighbor and the superimposition that builds node signatures —
// need not walk it a byte at a time. Go guarantees binary.LittleEndian.Uint64
// compiles to a single unaligned load on the platforms we care about, so the
// kernels below process eight bytes per step and fall back to byte-wise code
// only on the tail (len mod 8 bytes).
//
// The byte-wise originals live in word_test.go as reference implementations;
// the differential tests and FuzzSig64Equivalence hold the two forms equal on
// every length class mod 8.

package sigfile

import "encoding/binary"

// matchesWords reports whether every set bit of q is set in s, assuming
// len(s) == len(q). Eight bytes per step, byte-wise tail.
//
//skvet:hotpath
func matchesWords(s, q []byte) bool {
	n := len(q)
	i := 0
	for ; i+8 <= n; i += 8 {
		sw := binary.LittleEndian.Uint64(s[i:])
		qw := binary.LittleEndian.Uint64(q[i:])
		if sw&qw != qw {
			return false
		}
	}
	for ; i < n; i++ {
		if s[i]&q[i] != q[i] {
			return false
		}
	}
	return true
}

// superimposeWords ORs src into dst in place, assuming equal lengths.
//
//skvet:hotpath
func superimposeWords(dst, src []byte) {
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		w := binary.LittleEndian.Uint64(dst[i:]) | binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], w)
	}
	for ; i < n; i++ {
		dst[i] |= src[i]
	}
}

// Sig64 is a query signature pre-decoded into uint64 words: the full 8-byte
// little-endian words plus a zero-padded tail word for the last len mod 8
// bytes. Building one costs a single allocation at query setup; matching it
// against a raw aux payload straight off a disk block costs none. This is
// the representation the distance-first traversal holds for the lifetime of
// a query — the byte form is decoded once instead of re-walked per node.
type Sig64 struct {
	n    int      // length of the original signature in bytes
	full []uint64 // complete 8-byte words, little-endian
	tail uint64   // last n%8 bytes, little-endian, zero-padded high
}

// MakeSig64 decodes q into its word form. The result does not alias q.
func MakeSig64(q Signature) Sig64 {
	n := len(q)
	v := Sig64{n: n}
	nf := n / 8
	if nf > 0 {
		v.full = make([]uint64, nf)
		for i := range v.full {
			v.full[i] = binary.LittleEndian.Uint64(q[i*8:])
		}
	}
	v.tail = LoadWord(q, nf)
	return v
}

// Len returns the length of the original signature in bytes.
func (v Sig64) Len() int { return v.n }

// NumWords returns how many 64-bit words hold the query: the full words,
// plus the tail word when the length is not a multiple of 8.
func (v Sig64) NumWords() int { return (v.n + 7) / 8 }

// Word returns word i of the query, 0 <= i < NumWords(). Bit p of word i is
// signature bit 64·i+p, the numbering of the byte form (bit b lives in byte
// b/8, mask 1<<(b%8)); the tail word is zero above the signature's length.
//
//skvet:hotpath
func (v Sig64) Word(i int) uint64 {
	if i < len(v.full) {
		return v.full[i]
	}
	return v.tail
}

// IsZero reports whether no bit is set in the query.
func (v Sig64) IsZero() bool {
	for _, w := range v.full {
		if w != 0 {
			return false
		}
	}
	return v.tail == 0
}

// Bytes reconstructs the byte-form signature. For tests and diagnostics;
// allocates.
func (v Sig64) Bytes() Signature {
	s := make(Signature, v.n)
	for i, w := range v.full {
		binary.LittleEndian.PutUint64(s[i*8:], w)
	}
	for i := len(v.full) * 8; i < v.n; i++ {
		s[i] = byte(v.tail >> (8 * (i - len(v.full)*8)))
	}
	return s
}

// LoadWord returns word i of the raw signature s as its Sig64 form holds it:
// bytes 8i to 8i+7, little-endian, zero-padded high past the end of s. Bit p
// of the word is signature bit 64·i+p.
//
//skvet:hotpath
func LoadWord(s []byte, i int) uint64 {
	if i*8+8 <= len(s) {
		return binary.LittleEndian.Uint64(s[i*8:])
	}
	var w uint64
	for j := i * 8; j < len(s); j++ {
		w |= uint64(s[j]) << (8 * (j - i*8))
	}
	return w
}
