package rtree

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
)

// levelLenScheme gives every level its own payload length, the way a
// MIR²-Tree sizes its signatures per level. Its payloads are written into
// images directly, so it never maintains one.
type levelLenScheme struct{ lens []int }

func (s levelLenScheme) EntryAuxLen(level int) int { return s.lens[min(level, len(s.lens)-1)] }

func (levelLenScheme) NodeAux(NodeReader, *Node) ([]byte, error) {
	return nil, errors.New("levelLenScheme maintains no payloads")
}

// randomBytes fills b with bytes whose bits are set with probability
// 1/8, 1/4, 1/2, 3/4 or 7/8 for density 0 to 4.
func randomBytes(rng *rand.Rand, b []byte, density int) {
	for i := range b {
		x := byte(rng.Intn(256))
		switch density {
		case 0:
			x &= byte(rng.Intn(256)) & byte(rng.Intn(256))
		case 1:
			x &= byte(rng.Intn(256))
		case 3:
			x |= byte(rng.Intn(256))
		case 4:
			x |= byte(rng.Intn(256)) | byte(rng.Intn(256))
		}
		b[i] = x
	}
}

// rawImage encodes a node image as storeNode lays it out: the header, then
// count entries of pointer, rectangle and an auxLen-byte random payload.
func rawImage(rng *rand.Rand, level, count, auxLen, density int) []byte {
	es := baseEntrySize + auxLen
	img := make([]byte, nodeHeaderSize+count*es)
	binary.LittleEndian.PutUint32(img[0:4], uint32(level))
	binary.LittleEndian.PutUint32(img[4:8], uint32(count))
	for i := 0; i < count; i++ {
		off := nodeHeaderSize + i*es
		binary.LittleEndian.PutUint64(img[off:], uint64(i+1))
		for d := 0; d < 2*geo.Dims; d++ {
			binary.LittleEndian.PutUint64(img[off+8+8*d:], math.Float64bits(rng.Float64()*100))
		}
		randomBytes(rng, img[off+baseEntrySize:off+es], density)
	}
	return img
}

// matchesTolerant is the one-entry signature test a node's mask is held to:
// every bit of sig is set in the payload s, or their lengths differ, where
// a mismatched signature cannot be trusted and the only sound answer is
// "may match".
func matchesTolerant(sig *sigfile.Sig64, s []byte) bool {
	return len(s) != sig.Len() || sigfile.Matches(s, sig.Bytes())
}

// FuzzNodeMaskMatchesRowTest holds the bit-sliced test to the per-entry one.
// For a random node image, column b has bit i set exactly when entry i's
// payload has bit b, and bit i of MatchMask is set exactly when
// matchesTolerant accepts entry i's payload; neither ever sets a bit
// at or above the entry count. Entry counts straddle the mask's word
// boundaries (1, 63, 64, 65 and a full node); leaf payloads are 8, 64 or 189
// bytes — 189 has a Sig64 tail word — and each level above has its own
// length, as in a MIR²-Tree. A nil or zero query and one of another level's
// length keep every entry.
func FuzzNodeMaskMatchesRowTest(f *testing.F) {
	for countSel := uint8(0); countSel < 5; countSel++ {
		for lenSel := uint8(0); lenSel < 3; lenSel++ {
			f.Add(int64(countSel)*3+int64(lenSel), countSel, lenSel, countSel+lenSel, countSel+2*lenSel, lenSel+1)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, countSel, lenSel, level, mode, density uint8) {
		leaf := []int{8, 64, 189}[lenSel%3]
		lens := []int{leaf, 2*leaf + 3, 4*leaf + 1}
		tree, err := New(storage.NewDisk(4096), Config{Scheme: levelLenScheme{lens}, CacheNodes: -1})
		if err != nil {
			t.Fatal(err)
		}
		count := []int{1, 63, 64, 65, tree.MaxEntries()}[countSel%5]
		lvl := int(level % 3)
		auxLen := lens[lvl]
		rng := rand.New(rand.NewSource(seed))
		pn, err := tree.parsePacked(1, rawImage(rng, lvl, count, auxLen, int(density%5)), 0)
		if err != nil {
			t.Fatal(err)
		}
		nw := maskWords(count)
		if len(pn.cols) != auxLen*8*nw {
			t.Fatalf("%d column words for %d-byte payloads and %d entries", len(pn.cols), auxLen, count)
		}
		for b := 0; b < auxLen*8; b++ {
			for i := 0; i < nw*64; i++ {
				got := pn.cols[b*nw+i/64]&(1<<(i%64)) != 0
				if want := i < count && pn.EntryAux(i)[b/8]&(1<<(b%8)) != 0; got != want {
					t.Fatalf("column %d, entry %d of %d: bit %v, payload %v", b, i, count, got, want)
				}
			}
		}

		var sig *sigfile.Sig64
		keepAll := true
		switch mode % 5 {
		case 0: // no query signature
		case 1: // a zero query
			q := sigfile.MakeSig64(make(sigfile.Signature, auxLen))
			sig = &q
		case 2: // another level's length
			q := make(sigfile.Signature, lens[(lvl+1)%3])
			randomBytes(rng, q, 2)
			v := sigfile.MakeSig64(q)
			sig = &v
		case 3: // a subset of one entry's payload: at least that entry survives
			q := make(sigfile.Signature, auxLen)
			randomBytes(rng, q, 1)
			for i, b := range pn.EntryAux(rng.Intn(count)) {
				q[i] &= b
			}
			v := sigfile.MakeSig64(q)
			sig, keepAll = &v, false
		default: // a sparse random query
			q := make(sigfile.Signature, auxLen)
			randomBytes(rng, q, 0)
			v := sigfile.MakeSig64(q)
			sig, keepAll = &v, false
		}

		scratch := make([]uint64, tree.MaskWords())
		for i := range scratch {
			scratch[i] = 0xaaaaaaaaaaaaaaaa // a stale mask must not leak through
		}
		mask := pn.MatchMask(sig, scratch)
		if len(mask) != nw {
			t.Fatalf("mask has %d words for %d entries", len(mask), count)
		}
		for w, m := range mask {
			for b := 0; b < 64; b++ {
				i := w*64 + b
				got := m&(1<<b) != 0
				if i >= count {
					if got {
						t.Fatalf("mask bit %d set, node has %d entries", i, count)
					}
					continue
				}
				want := sig == nil || matchesTolerant(sig, pn.EntryAux(i))
				if got != want {
					t.Fatalf("entry %d of %d (level %d, %d-byte payload, query mode %d): mask %v, row test %v",
						i, count, lvl, auxLen, mode%5, got, want)
				}
				if keepAll && !got {
					t.Fatalf("entry %d pruned by a query that must keep every entry (mode %d)", i, mode%5)
				}
			}
		}
	})
}
