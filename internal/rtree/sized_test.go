package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

// wordScheme gives every object three "words" derived from its reference
// and a payload that sets one bit per word at any length: the shape of a
// signature scheme, small enough to check by hand. Its leaves are 4 bytes;
// NodeAux superimposes entries, and CoverAux rebuilds a node's payload from
// the words of the objects under it. As a LevelSizer it gives level 1 12
// bytes and every level above it none.
type wordScheme struct{}

func wordsOf(ref uint64) []uint64 { return []uint64{ref % 13, 13 + ref%7, 20 + ref%29} }

// wordPayload sets the bits of words in a payload of length bytes.
func wordPayload(words []uint64, length int) []byte {
	out := make([]byte, length)
	for _, w := range words {
		if length > 0 {
			b := (w * 2654435761) % uint64(8*length)
			out[b/8] |= 1 << (b % 8)
		}
	}
	return out
}

func (wordScheme) EntryAuxLen(int) int { return 4 }

func (wordScheme) NodeAux(r NodeReader, n *Node) ([]byte, error) {
	out := make([]byte, r.AuxLen(n.Level()+1))
	for i := 0; i < n.NumEntries(); i++ {
		_, _, aux := n.Entry(i)
		if len(aux) != len(out) {
			return nil, fmt.Errorf("entry payload %d bytes, want %d", len(aux), len(out))
		}
		for j := range out {
			out[j] |= aux[j]
		}
	}
	return out, nil
}

func (wordScheme) CoverAux(r NodeReader, n *Node, length int) ([]byte, error) {
	refs, err := r.SubtreeObjectRefs(n)
	if err != nil {
		return nil, err
	}
	var words []uint64
	for _, ref := range refs {
		words = append(words, wordsOf(ref)...)
	}
	return wordPayload(words, length), nil
}

func (wordScheme) SizeLevel(level int, _ []*Node) (int, error) {
	if level == 1 {
		return 12, nil
	}
	return 0, nil
}

func liftOf(ref uint64) Lift {
	return func(length int) []byte { return wordPayload(wordsOf(ref), length) }
}

// sizedTree packs n random points into a tree of capacity 4 whose level 1
// is sized and whose upper levels have no payload.
func sizedTree(t *testing.T, rng *rand.Rand, n int) (*Tree, *storage.Disk) {
	t.Helper()
	disk := storage.NewDisk(4096)
	tree, err := New(disk, Config{MaxEntries: 4, Scheme: wordScheme{}})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]BulkEntry, n)
	for i := range entries {
		p := geo.NewPoint(rng.Float64()*100, rng.Float64()*100)
		entries[i] = BulkEntry{Ref: uint64(i), Rect: geo.PointRect(p), Aux: wordPayload(wordsOf(uint64(i)), 4)}
	}
	if err := tree.BulkLoad(entries, wordScheme{}); err != nil {
		t.Fatal(err)
	}
	return tree, disk
}

// TestSizedLevelsKeepCovering: a pack records the sizer's lengths, and every
// later change — inserts that split leaves and the root, with and without a
// lift, deletes that condense, a checkpoint and reopen — keeps each sized
// payload a superset of the words under it, which CheckInvariants holds it
// to. A delete that empties the tree forgets the lengths.
func TestSizedLevelsKeepCovering(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	tree, disk := sizedTree(t, rng, 120)
	check := func(when string) {
		t.Helper()
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("pack")
	packed := tree.Height()
	if got, want := fmt.Sprint(tree.AuxLens()), fmt.Sprint([]int{4, 12, 0, 0}[:packed]); got != want {
		t.Fatalf("lengths after the pack %s, want %s", got, want)
	}
	rects := map[uint64]geo.Rect{}
	for ref := uint64(120); ref < 600; ref++ {
		p := geo.PointRect(geo.NewPoint(rng.Float64()*100, rng.Float64()*100))
		rects[ref] = p
		var lift Lift
		if ref%10 != 0 { // every tenth insert has no words to lift
			lift = liftOf(ref)
		}
		if err := tree.Insert(ref, p, wordPayload(wordsOf(ref), 4), lift); err != nil {
			t.Fatal(err)
		}
	}
	check("inserts")
	if tree.Height() <= packed {
		t.Fatalf("height %d after the inserts, %d packed: the root never split", tree.Height(), packed)
	}
	nodes := tree.NumNodes()
	for ref := uint64(120); ref < 450; ref++ {
		if ok, err := tree.Delete(ref, rects[ref]); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", ref, ok, err)
		}
	}
	check("deletes")
	if tree.NumNodes() >= nodes {
		t.Fatalf("%d nodes after the deletes, %d before: nothing condensed", tree.NumNodes(), nodes)
	}

	state, err := tree.Checkpoint(storage.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Open(disk, Config{MaxEntries: 4, Scheme: wordScheme{}}, state)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(re.AuxLens()) != fmt.Sprint(tree.AuxLens()) {
		t.Fatalf("reopened lengths %v, want %v", re.AuxLens(), tree.AuxLens())
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatalf("reopen: %v", err)
	}

	// A delete that empties the tree forgets the lengths: the next tree is
	// the scheme's until it is packed.
	emptyRng := rand.New(rand.NewSource(82))
	small, _ := sizedTree(t, emptyRng, 9)
	var refs []uint64
	var rs []geo.Rect
	if err := small.VisitNodes(func(n *Node) error {
		for i := 0; n.Level() == 0 && i < n.NumEntries(); i++ {
			ref, r, _ := n.Entry(i)
			refs, rs = append(refs, ref), append(rs, r.Clone())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, ref := range refs {
		if ok, err := small.Delete(ref, rs[i]); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", ref, ok, err)
		}
	}
	if small.lens != nil || small.AuxLen(1) != 4 {
		t.Fatalf("emptied tree keeps lengths %v", small.lens)
	}
}

// TestCheckerCatchesUncoveredSizedPayload: a sized payload that lost a bit
// of a word under it fails CheckInvariants.
func TestCheckerCatchesUncoveredSizedPayload(t *testing.T) {
	tree, _ := sizedTree(t, rand.New(rand.NewSource(83)), 40)
	var victim *Node
	if err := tree.VisitNodes(func(n *Node) error {
		if n.Level() == 1 && victim == nil {
			victim = n
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if victim == nil {
		t.Fatal("no level-1 node")
	}
	clear(victim.entries[0].aux)
	if err := tree.storeNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err == nil {
		t.Fatal("a sized payload with no bits passed the checker")
	}
}

// TestStateBlockLengths: a uniform tree's state block is the one written
// before sized packs (no lengths), a sized one's lengths survive a reopen
// and change the fingerprint, and a corrupt length count is refused.
func TestStateBlockLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	plain, pdisk := newAuxTree(t, wordScheme{}, 4)
	for i := 0; i < 30; i++ {
		if err := plain.Insert(uint64(i), geo.PointRect(geo.NewPoint(rng.Float64(), rng.Float64())), wordPayload(wordsOf(uint64(i)), 4), nil); err != nil {
			t.Fatal(err)
		}
	}
	pstate, err := plain.Checkpoint(storage.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := pdisk.Read(pstate)
	if err != nil {
		t.Fatal(err)
	}
	for i := stateLensOff; i < 44; i++ {
		if buf[i] != 0 {
			t.Fatalf("uniform state block byte %d = %d, want the zeros of a state without lengths", i, buf[i])
		}
	}

	sized, sdisk := sizedTree(t, rng, 60)
	if sized.stateFingerprint() == plain.stateFingerprint() {
		t.Fatal("recorded lengths do not change the fingerprint")
	}
	state, err := sized.Checkpoint(storage.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	buf, err = sdisk.Read(state)
	if err != nil {
		t.Fatal(err)
	}
	buf[stateLensOff] = maxStateLens + 1
	if err := sdisk.Write(state, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(sdisk, Config{MaxEntries: 4, Scheme: wordScheme{}}, state); err == nil {
		t.Fatal("a state block with too many lengths opened")
	}
}
