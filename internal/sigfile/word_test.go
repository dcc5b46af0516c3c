package sigfile

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// randSig fills a signature of length n with deterministic pseudo-random
// bytes, optionally AND-masking it so matches become likely.
func randSig(rng *rand.Rand, n int, mask byte) Signature {
	s := make(Signature, n)
	for i := range s {
		s[i] = byte(rng.Intn(256)) & mask
	}
	return s
}

// matchesBytewise is the original byte-at-a-time match, kept as the oracle
// for the differential and fuzz tests.
func matchesBytewise(s, q []byte) bool {
	for i := range q {
		if s[i]&q[i] != q[i] {
			return false
		}
	}
	return true
}

// superimposeBytewise is the original byte-at-a-time superimposition oracle.
func superimposeBytewise(dst, src []byte) {
	for i := range src {
		dst[i] |= src[i]
	}
}

// MatchesTolerant is Matches for signatures of possibly-corrupt provenance:
// on length mismatch it reports true (no pruning) instead of panicking —
// the byte-form twin of Sig64.MatchesTolerant.
// TestWordKernelsAgreeWithBytewise, TestSig64TolerantOnMismatch and
// TestMatchesAllocFree use it.
func MatchesTolerant(s, q Signature) bool {
	if len(s) != len(q) {
		return true
	}
	return matchesWords(s, q)
}

// MatchesTolerant reports whether a document or subtree whose signature is
// the raw byte slice s may contain everything the query describes. A length
// mismatch means the decoded signature cannot be trusted: signatures admit
// false positives but never false negatives, so the only sound answer is
// "may match", and the exact text check downstream decides. s may alias
// a disk-block image; it is never retained. Zero allocations.
//
// No traversal calls it: they test a whole node at once
// (rtree.PackedNode.MatchMask over the node's signature columns); the rtree
// and core tests hold those masks to Matches on the bytes instead. These
// tests hold it to MatchesTolerant, its byte-form twin.
func (v Sig64) MatchesTolerant(s []byte) bool {
	if len(s) != v.n {
		return true
	}
	for i, qw := range v.full {
		sw := binary.LittleEndian.Uint64(s[i*8:])
		if sw&qw != qw {
			return false
		}
	}
	if v.tail != 0 {
		if sw := LoadWord(s, len(v.full)); sw&v.tail != v.tail {
			return false
		}
	}
	return true
}

// TestWordKernelsAgreeWithBytewise holds the word-at-a-time kernels equal to
// the byte-wise reference implementations on randomized signatures of every
// length class mod 8 (lengths 0..40 cover each residue five times, plus the
// paper's 8 B and 189 B lengths).
func TestWordKernelsAgreeWithBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := make([]int, 0, 48)
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 64, 189)
	for _, n := range lengths {
		for trial := 0; trial < 64; trial++ {
			s := randSig(rng, n, 0xff)
			var q Signature
			switch trial % 3 {
			case 0: // independent random query: matches unlikely
				q = randSig(rng, n, 0xff)
			case 1: // subset of s: must match
				q = s.Clone()
				for i := range q {
					q[i] &= byte(rng.Intn(256))
				}
			default: // near-subset: flip one bit sometimes
				q = s.Clone()
				if n > 0 && rng.Intn(2) == 0 {
					q[rng.Intn(n)] ^= 1 << uint(rng.Intn(8))
				}
			}

			want := matchesBytewise(s, q)
			if got := matchesWords(s, q); got != want {
				t.Fatalf("matchesWords(len %d) = %v, bytewise = %v\ns=%x\nq=%x", n, got, want, s, q)
			}
			if got := Matches(s, q); got != want {
				t.Fatalf("Matches(len %d) = %v, bytewise = %v", n, got, want)
			}
			if got := MatchesTolerant(s, q); got != want {
				t.Fatalf("MatchesTolerant(len %d) = %v, bytewise = %v", n, got, want)
			}

			v := MakeSig64(q)
			if got := v.MatchesTolerant(s); got != want {
				t.Fatalf("Sig64.MatchesTolerant(len %d) = %v, bytewise = %v\ns=%x\nq=%x", n, got, want, s, q)
			}
			if !bytes.Equal(v.Bytes(), q) {
				t.Fatalf("Sig64 round-trip(len %d): got %x want %x", n, v.Bytes(), q)
			}
			if v.Len() != n {
				t.Fatalf("Sig64.Len = %d, want %d", v.Len(), n)
			}
			if v.IsZero() != q.IsZero() {
				t.Fatalf("Sig64.IsZero(len %d) = %v, Signature.IsZero = %v", n, v.IsZero(), q.IsZero())
			}

			// Superimpose: word kernel vs byte-wise oracle.
			d1, d2 := s.Clone(), s.Clone()
			superimposeWords(d1, q)
			superimposeBytewise(d2, q)
			if !bytes.Equal(d1, d2) {
				t.Fatalf("superimposeWords(len %d): got %x want %x", n, d1, d2)
			}
			if err := SuperimposeChecked(d1, q); err != nil {
				t.Fatalf("SuperimposeChecked(len %d): %v", n, err)
			}
		}
	}
}

// TestSig64TolerantOnMismatch: like the byte form, a length mismatch must
// answer "may match".
func TestSig64TolerantOnMismatch(t *testing.T) {
	v := MakeSig64(Signature{0xff, 0x01})
	if !v.MatchesTolerant([]byte{0x00}) {
		t.Fatal("Sig64.MatchesTolerant must report true on length mismatch")
	}
	if !MatchesTolerant(Signature{0x00}, Signature{0xff, 0x01}) {
		t.Fatal("MatchesTolerant must report true on length mismatch")
	}
}

// TestWordSig64MatchesMakeSig64: the word form built straight from a word's
// hash (HashSig64) equals the decoded byte form at every length class mod 8 and bits per
// word, into fresh storage and into reused storage holding another word.
func TestWordSig64MatchesMakeSig64(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	dirty := Sig64{full: make([]uint64, 0, 32)}
	for n := 0; n <= 200; n++ {
		for _, k := range []int{0, 1, 4, 9} {
			c := Config{LengthBytes: n, BitsPerWord: k}
			for trial := 0; trial < 3; trial++ {
				w := string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
				want := MakeSig64(c.WordSignature(w))
				for _, prev := range []Sig64{{}, c.HashSig64(dirty, Hash("other"))} {
					got := c.HashSig64(prev, Hash(w))
					if got.Len() != want.Len() || got.NumWords() != want.NumWords() {
						t.Fatalf("len %d, k %d, %q: length %d/%d words, want %d/%d", n, k, w, got.Len(), got.NumWords(), want.Len(), want.NumWords())
					}
					for i := 0; i < want.NumWords(); i++ {
						if got.Word(i) != want.Word(i) {
							t.Fatalf("len %d, k %d, %q: word %d %x, want %x", n, k, w, i, got.Word(i), want.Word(i))
						}
					}
				}
			}
		}
	}
}

// FuzzSig64Equivalence fuzzes the word-at-a-time kernels against the
// byte-wise oracles on arbitrary signature pairs, truncating both inputs to
// a shared length so every length class mod 8 is exercised.
func FuzzSig64Equivalence(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0xff}, []byte{0x01})
	f.Add([]byte("eightbyt"), []byte("eightbyt"))
	f.Add([]byte("seventeen bytes.."), []byte("seventeen bytes!!"))
	f.Add(bytes.Repeat([]byte{0xaa}, 189), bytes.Repeat([]byte{0x22}, 189))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		s, q := Signature(a[:n]), Signature(b[:n])

		want := matchesBytewise(s, q)
		if got := matchesWords(s, q); got != want {
			t.Fatalf("matchesWords = %v, bytewise = %v on s=%x q=%x", got, want, s, q)
		}
		v := MakeSig64(q)
		if got := v.MatchesTolerant(s); got != want {
			t.Fatalf("Sig64.MatchesTolerant = %v, bytewise = %v on s=%x q=%x", got, want, s, q)
		}
		if !bytes.Equal(v.Bytes(), q) {
			t.Fatalf("Sig64 round-trip: got %x want %x", v.Bytes(), q)
		}
		// Full-length b as the document side too: mismatched lengths must
		// be tolerated, not crash.
		if len(b) != v.Len() && !v.MatchesTolerant(b) {
			t.Fatal("Sig64.MatchesTolerant must be true on length mismatch")
		}

		d1 := append(Signature(nil), s...)
		d2 := append(Signature(nil), s...)
		superimposeWords(d1, q)
		superimposeBytewise(d2, q)
		if !bytes.Equal(d1, d2) {
			t.Fatalf("superimposeWords: got %x want %x", d1, d2)
		}
		// A signature always matches anything it was superimposed into.
		if !matchesWords(d1, q) {
			t.Fatal("superimposed signature must match its source")
		}
	})
}
