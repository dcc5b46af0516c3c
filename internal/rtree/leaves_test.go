package rtree

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

// keepScheme is orScheme on a LeafKeeper: it holds the payload of every
// object below keepRefs, refMask's bytes repeated to n, so a tree on it
// stores none in its leaves.
type keepScheme struct{ orScheme }

const keepRefs = 1 << 16

func (s keepScheme) LeafAux(ref uint64) ([]byte, bool) {
	if ref >= keepRefs {
		return nil, false
	}
	aux := make([]byte, s.n)
	m := refMask(ref)
	for i := range aux {
		aux[i] = m[i%len(m)]
	}
	return aux, true
}

// The leaf layouts a tree stores: payloads in the leaves (no LeafKeeper),
// and 24-byte point entries of row IDs (a tree on a LeafKeeper).
const (
	layoutStored = iota
	layoutPoints
	layouts
)

// layoutTree returns an empty tree on a bs-byte memory disk whose leaves
// have the given layout, with n-byte payloads.
func layoutTree(t testing.TB, layout, bs, n int) *Tree {
	t.Helper()
	var scheme AuxScheme = orScheme{n: n}
	if layout != layoutStored {
		scheme = keepScheme{orScheme{n: n}}
	}
	tree, err := New(storage.NewDisk(bs), Config{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestPointLeavesUnderMutation builds a point-leaf tree by inserts, packs
// one, deletes most of each (condensing leaves below their minimum fill),
// and checkpoints and reopens them: every invariant holds throughout, every
// leaf entry reads back as its point, and a rectangle that is not a point
// is refused.
func TestPointLeavesUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	points := make([]geo.Rect, 2000)
	for i := range points {
		points[i] = geo.PointRect(geo.NewPoint(rng.Float64()*100, rng.Float64()*100))
	}
	scheme := keepScheme{orScheme{n: 8}}
	check := func(tree *Tree, live map[uint64]bool) {
		t.Helper()
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		lo, hi := make(geo.Point, geo.Dims), make(geo.Point, geo.Dims)
		seen := 0
		if err := tree.VisitNodes(func(n *Node) error {
			if n.Level() > 0 {
				return nil
			}
			pn, err := tree.LoadPacked(n.ID())
			if err != nil {
				return err
			}
			for i := 0; i < pn.NumEntries(); i++ {
				ref := pn.EntryPtr(i)
				if r := pn.EntryRectInto(i, lo, hi); !live[ref] || !r.Equal(points[ref]) {
					t.Fatalf("leaf %d entry %d: object %d at %v, want a live object at %v", n.ID(), i, ref, r, points[ref])
				}
				seen++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if seen != len(live) {
			t.Fatalf("leaves hold %d objects, want %d", seen, len(live))
		}
	}
	for _, packed := range []bool{false, true} {
		disk := storage.NewDisk(4096)
		tree, err := New(disk, Config{Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		live := map[uint64]bool{}
		if packed {
			entries := make([]BulkEntry, len(points))
			for i, r := range points {
				entries[i] = BulkEntry{Ref: uint64(i), Rect: r}
				live[uint64(i)] = true
			}
			if err := tree.BulkLoad(entries, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			for i, r := range points {
				if err := tree.Insert(uint64(i), r, nil, nil); err != nil {
					t.Fatal(err)
				}
				live[uint64(i)] = true
			}
		}
		check(tree, live)
		box := geo.NewRect(geo.NewPoint(1, 1), geo.NewPoint(2, 2))
		if err := tree.Insert(keepRefs-1, box, nil, nil); err == nil || !strings.Contains(err.Error(), "not a point") {
			t.Fatalf("insert of a rectangle into point leaves: %v", err)
		}
		for i := range points {
			if i%5 != 0 && points[i].Lo[0] < 70 {
				if ok, err := tree.Delete(uint64(i), points[i]); !ok || err != nil {
					t.Fatalf("delete %d: %v %v", i, ok, err)
				}
				delete(live, uint64(i))
			}
		}
		check(tree, live)
		state, err := tree.Checkpoint(storage.NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		re, err := Open(disk, Config{Scheme: scheme}, state)
		if err != nil {
			t.Fatal(err)
		}
		if re.Capacity(0) != 170 {
			t.Fatalf("reopened point-leaf tree: leaf capacity %d", re.Capacity(0))
		}
		check(re, live)
	}

	if err := layoutTree(t, layoutPoints, 4096, 8).BulkLoad([]BulkEntry{{Ref: 1, Rect: geo.NewRect(geo.NewPoint(1, 1), geo.NewPoint(2, 2))}}, nil); err == nil {
		t.Fatal("a bulk load of a rectangle into point leaves succeeded")
	}
}

// TestOlderLeafLayoutsDoNotOpenOnKeeper: a keeper opens no state but its
// own, point leaves of row IDs. A state whose leaves store their payloads,
// and one an older keeper tree wrote (leaves without payloads whose entries
// named a row by its offset: bit 31, and bit 30 when they were points), is
// ErrLeafLayout, found before the fingerprint or the root is read; so the
// state's root may point anywhere. A tree whose leaves store their payloads
// does not open a keeper's state.
func TestOlderLeafLayoutsDoNotOpenOnKeeper(t *testing.T) {
	scheme := keepScheme{orScheme{n: 8}}
	stored := layoutTree(t, layoutStored, 4096, 8)
	for i := 0; i < 300; i++ {
		p := geo.NewPoint(float64(i%17), float64(i%23))
		if err := stored.Insert(uint64(i), geo.PointRect(p), append(refMask(uint64(i)), 0, 0, 0, 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	state, err := stored.Checkpoint(storage.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(stored.dev, Config{Scheme: scheme}, state); !errors.Is(err, ErrLeafLayout) {
		t.Fatalf("a keeper opening a stored-payload state: %v, want ErrLeafLayout", err)
	}
	for _, bits := range []uint32{1 << 31, 1<<31 | 1<<30} {
		buf, err := stored.dev.Read(state)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(buf[stateLensOff:], bits)
		binary.LittleEndian.PutUint64(buf[8:16], 1<<40) // a root no read survives
		old := stored.dev.Alloc()
		if err := stored.dev.Write(old, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(stored.dev, Config{Scheme: scheme}, old); !errors.Is(err, ErrLeafLayout) {
			t.Fatalf("a keeper opening a state with bits %#x: %v, want ErrLeafLayout", bits, err)
		}
	}

	kept := layoutTree(t, layoutPoints, 4096, 8)
	if err := kept.Insert(1, geo.PointRect(geo.NewPoint(1, 1)), nil, nil); err != nil {
		t.Fatal(err)
	}
	state, err = kept.Checkpoint(storage.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(kept.dev, Config{Scheme: orScheme{n: 8}}, state); err == nil || errors.Is(err, ErrLeafLayout) {
		t.Fatalf("a stored-payload tree opening a keeper's state: %v, want a refusal", err)
	}
}

// nodeImage returns a run of blocks holding a node header of level and
// count, and count entries of the level's layout with small pointers.
func nodeImage(tree *Tree, level, count int) []byte {
	bs := tree.dev.BlockSize()
	es := tree.entrySize(level)
	img := make([]byte, (nodeHeaderSize+count*es+bs-1)/bs*bs)
	binary.LittleEndian.PutUint32(img[0:4], uint32(level))
	binary.LittleEndian.PutUint32(img[4:8], uint32(count))
	for i := 0; i < count; i++ {
		binary.LittleEndian.PutUint64(img[nodeHeaderSize+i*es:], uint64(i+1))
	}
	return img
}

// TestHeaderCountIsLevelCapacity: a node claiming one entry more than its
// level holds is corrupt, whatever run it names — a point leaf of 171, a
// stored-payload leaf of 103, and an interior node of 103 whose payloads
// make its capacity run long enough to hold them.
func TestHeaderCountIsLevelCapacity(t *testing.T) {
	for _, tc := range []struct {
		name          string
		layout, level int
		count         int
	}{
		{"point leaf", layoutPoints, 0, 171},
		{"stored-payload leaf", layoutStored, 0, 103},
		{"interior", layoutPoints, 1, 103},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// 64-byte payloads: an interior node's capacity run of 102
			// 104-byte entries is 3 blocks, room for 118.
			tree := layoutTree(t, tc.layout, 4096, 64)
			for _, run := range []int{0, tree.blocksForLevel(tc.level)} {
				img := nodeImage(tree, tc.level, tc.count)
				binary.LittleEndian.PutUint32(img[0:4], uint32(tc.level|run<<runShift))
				id := tree.dev.AllocRun(len(img) / 4096)
				if err := tree.dev.WriteRun(id, len(img)/4096, img); err != nil {
					t.Fatal(err)
				}
				if _, err := tree.parsePacked(id, img, 0); err == nil || !strings.Contains(err.Error(), "corrupt node") {
					t.Errorf("run %d: parse of %d entries: %v, want a corrupt node", run, tc.count, err)
				}
				if _, err := tree.loadNode(id); err == nil || !strings.Contains(err.Error(), "corrupt node") {
					t.Errorf("run %d: load of %d entries: %v, want a corrupt node", run, tc.count, err)
				}
			}
			img := nodeImage(tree, tc.level, tc.count-1)
			if _, err := tree.parsePacked(1, img, 0); err != nil {
				t.Errorf("a full node: %v", err)
			}
		})
	}
}

// pastKeeper returns a point leaf of three entries whose second names row
// keepRefs, which keepScheme does not hold.
func pastKeeper(tree *Tree) []byte {
	img := nodeImage(tree, 0, 3)
	binary.LittleEndian.PutUint64(img[nodeHeaderSize+tree.entrySize(0):], keepRefs)
	return img
}

// TestLeafEntryPastKeeperIsCorrupt: a point leaf entry naming a row the
// keeper does not hold is a corrupt node to both readers, decoded and
// packed.
func TestLeafEntryPastKeeperIsCorrupt(t *testing.T) {
	tree := layoutTree(t, layoutPoints, 512, 8)
	img := pastKeeper(tree)
	id := tree.dev.AllocRun(1)
	if err := tree.dev.WriteRun(id, 1, img); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.parsePacked(id, img, 0); err == nil || !strings.Contains(err.Error(), "corrupt node") {
		t.Errorf("parse: %v, want a corrupt node", err)
	}
	if _, err := tree.loadNode(id); err == nil || !strings.Contains(err.Error(), "corrupt node") {
		t.Errorf("load: %v, want a corrupt node", err)
	}
}

// FuzzNodeImage: no bytes, read as a node of either leaf layout at any
// level, make parsePacked or loadNode panic, and an image either parses
// into entries whose accessors read inside it or is an error; a point leaf
// that parses names only rows its keeper holds. The seeds are full and
// overfull nodes, empty leaves, and point leaves naming the last row the
// keeper holds and the first past it.
func FuzzNodeImage(f *testing.F) {
	for layout := uint8(0); layout < layouts; layout++ {
		for level := 0; level < 2; level++ {
			tree := layoutTree(f, int(layout), 512, 8)
			f.Add(layout, nodeImage(tree, level, tree.Capacity(level)))
			f.Add(layout, nodeImage(tree, level, tree.Capacity(level)+1))
		}
	}
	for layout := uint8(0); layout < layouts; layout++ {
		f.Add(layout, nodeImage(layoutTree(f, int(layout), 512, 8), 0, 0))
	}
	points := layoutTree(f, layoutPoints, 512, 8)
	f.Add(uint8(layoutPoints), pastKeeper(points))
	lastKept := nodeImage(points, 0, 3)
	binary.LittleEndian.PutUint64(lastKept[nodeHeaderSize+points.entrySize(0):], keepRefs-1)
	f.Add(uint8(layoutPoints), lastKept)
	f.Fuzz(func(t *testing.T, layout uint8, img []byte) {
		const bs = 512
		tree := layoutTree(t, int(layout%layouts), bs, 8)
		run := min(max((len(img)+bs-1)/bs, 1), 4)
		buf := make([]byte, run*bs)
		copy(buf, img)
		id := tree.dev.AllocRun(run)
		if err := tree.dev.WriteRun(id, run, buf); err != nil {
			t.Fatal(err)
		}
		if n, err := tree.loadNode(id); err == nil && n.NumEntries() > tree.Capacity(n.Level()) {
			t.Fatalf("loaded %d entries at level %d, capacity %d", n.NumEntries(), n.Level(), tree.Capacity(n.Level()))
		}
		pn, err := tree.parsePacked(id, buf, 0)
		if err != nil {
			return
		}
		lo, hi := make(geo.Point, geo.Dims), make(geo.Point, geo.Dims)
		mask := pn.MatchMask(nil, make([]uint64, tree.MaskWords()))
		for i := 0; i < pn.NumEntries(); i++ {
			if ref := pn.EntryPtr(i); tree.pointLeaf(pn.Level()) && ref >= keepRefs {
				t.Fatalf("parsed a leaf entry naming row %d, which the keeper does not hold", ref)
			}
			pn.EntryRectInto(i, lo, hi)
			pn.EntryAux(i)
		}
		if len(mask) != maskWords(pn.NumEntries()) {
			t.Fatalf("mask of %d words for %d entries", len(mask), pn.NumEntries())
		}
	})
}
