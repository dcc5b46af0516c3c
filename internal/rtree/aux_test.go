package rtree

import (
	"math/rand"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
)

// orScheme is a minimal AuxScheme for testing the payload plumbing: every
// entry carries a fixed-length bitmask and a parent entry's payload is the
// OR of its child node's entry payloads — the same superimposition shape as
// the IR²-Tree, without the text machinery.
type orScheme struct{ n int }

func (s orScheme) EntryAuxLen(int) int { return s.n }

func (s orScheme) NodeAux(r NodeReader, n *Node) ([]byte, error) {
	out := make([]byte, s.n)
	for i := 0; i < n.NumEntries(); i++ {
		_, _, aux := n.Entry(i)
		for j := range out {
			out[j] |= aux[j]
		}
	}
	return out, nil
}

// bigScheme forces multi-block nodes: a payload long enough that a node
// cannot fit in one 4096-byte block.
type bigScheme struct{ orScheme }

func newAuxTree(t *testing.T, scheme AuxScheme, maxEntries int) (*Tree, *storage.Disk) {
	t.Helper()
	disk := storage.NewDisk(4096)
	tree, err := New(disk, Config{MaxEntries: maxEntries, Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	return tree, disk
}

// refMask derives a deterministic 4-byte mask for an object reference.
func refMask(ref uint64) []byte {
	return []byte{
		byte(1 << (ref % 8)),
		byte(1 << ((ref / 8) % 8)),
		byte(1 << ((ref / 64) % 8)),
		0,
	}
}

func TestAuxMaintainedThroughInserts(t *testing.T) {
	tree, _ := newAuxTree(t, orScheme{n: 4}, 3)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		p := geo.NewPoint(rng.Float64()*100, rng.Float64()*100)
		if err := tree.Insert(uint64(i), geo.PointRect(p), refMask(uint64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	// CheckInvariants verifies parent payload == NodeAux(child) everywhere.
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAuxMaintainedThroughDeletes(t *testing.T) {
	tree, _ := newAuxTree(t, orScheme{n: 4}, 3)
	rng := rand.New(rand.NewSource(7))
	pts := make([]geo.Point, 120)
	for i := range pts {
		pts[i] = geo.NewPoint(rng.Float64()*100, rng.Float64()*100)
		if err := tree.Insert(uint64(i), geo.PointRect(pts[i]), refMask(uint64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	perm := rng.Perm(len(pts))
	for step, i := range perm {
		ok, err := tree.Delete(uint64(i), geo.PointRect(pts[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("object %d missing", i)
		}
		if step%10 == 9 {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", step+1, err)
			}
		}
	}
	if tree.Len() != 0 {
		t.Errorf("Len = %d", tree.Len())
	}
}

func TestAuxLengthValidated(t *testing.T) {
	tree, _ := newAuxTree(t, orScheme{n: 4}, 3)
	if err := tree.Insert(1, geo.PointRect(geo.NewPoint(0, 0)), []byte{1, 2}, nil); err == nil {
		t.Error("short payload accepted")
	}
	if err := tree.Insert(1, geo.PointRect(geo.NewPoint(0, 0)), nil, nil); err == nil {
		t.Error("nil payload accepted by payload-carrying tree")
	}
}

func TestAuxPruningDuringSearch(t *testing.T) {
	tree, _ := newAuxTree(t, orScheme{n: 4}, 3)
	// Two clusters: refs 0..49 near origin with mask A, refs 100..149 far
	// away with mask B.
	rng := rand.New(rand.NewSource(8))
	maskA := []byte{0x01, 0, 0, 0}
	maskB := []byte{0x80, 0, 0, 0}
	for i := 0; i < 50; i++ {
		p := geo.NewPoint(rng.Float64()*10, rng.Float64()*10)
		if err := tree.Insert(uint64(i), geo.PointRect(p), maskA, nil); err != nil {
			t.Fatal(err)
		}
		q := geo.NewPoint(1000+rng.Float64()*10, 1000+rng.Float64()*10)
		if err := tree.Insert(uint64(100+i), geo.PointRect(q), maskB, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Search from the origin for mask B objects only: the whole near
	// cluster must be pruned by payload, not by distance.
	sig := sigfile.MakeSig64(sigfile.Signature(maskB))
	it := tree.NearestNeighbors(geo.NewPoint(0, 0), func(int) *sigfile.Sig64 { return &sig })
	count := 0
	for {
		ref, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if ref < 100 {
			t.Fatalf("mask A object %d returned", ref)
		}
		count++
	}
	if count != 50 {
		t.Errorf("returned %d mask-B objects, want 50", count)
	}
}

func TestMultiBlockNodes(t *testing.T) {
	// 512-byte payloads with capacity 102: node needs
	// ceil((8 + 102*(40+512))/4096) = 14 blocks.
	scheme := bigScheme{orScheme{n: 512}}
	tree, disk := newAuxTree(t, scheme, 0)
	if got := tree.blocksForLevel(0); got < 2 {
		t.Fatalf("blocksForLevel = %d, want >= 2", got)
	}
	aux := make([]byte, 512)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		aux[i%512] = byte(i)
		p := geo.NewPoint(rng.Float64()*100, rng.Float64()*100)
		if err := tree.Insert(uint64(i), geo.PointRect(p), aux, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Loading one node must cost exactly 1 random read + (blocks-1)
	// sequential reads.
	root, err := tree.Root()
	if err != nil {
		t.Fatal(err)
	}
	disk.ResetStats()
	if _, err := tree.LoadNode(root.ID()); err != nil {
		t.Fatal(err)
	}
	s := disk.Stats()
	wantSeq := uint64(tree.blocksForLevel(root.Level()) - 1)
	if s.RandomReads != 1 || s.SequentialReads != wantSeq {
		t.Errorf("node load I/O = %+v, want 1 random + %d sequential", s, wantSeq)
	}
}

func TestRebuildAux(t *testing.T) {
	tree, _ := newAuxTree(t, orScheme{n: 4}, 3)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 150; i++ {
		p := geo.NewPoint(rng.Float64()*100, rng.Float64()*100)
		if err := tree.Insert(uint64(i), geo.PointRect(p), refMask(uint64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Sabotage: zero out every interior payload directly on disk.
	var interior []*Node
	if err := tree.VisitNodes(func(n *Node) error {
		if n.Level() > 0 {
			interior = append(interior, n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, n := range interior {
		for i := range n.entries {
			n.entries[i].aux = make([]byte, 4)
		}
		if err := tree.storeNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err == nil {
		t.Fatal("sabotage not detected — test is vacuous")
	}
	if err := tree.RebuildAux(); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("after rebuild: %v", err)
	}
}

func TestRebuildAuxEmptyTree(t *testing.T) {
	tree, _ := newAuxTree(t, orScheme{n: 4}, 3)
	if err := tree.RebuildAux(); err != nil {
		t.Fatal(err)
	}
}
