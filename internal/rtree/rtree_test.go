package rtree

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

// newTestTree builds a tree with small capacity so tests exercise splits.
func newTestTree(t *testing.T, maxEntries int) *Tree {
	t.Helper()
	tree, err := New(storage.NewDisk(4096), Config{MaxEntries: maxEntries})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// hotels is the paper's Figure 1 dataset: (lat, lon) per hotel, in order
// H1..H8, using index+1 as the object reference.
var hotels = []geo.Point{
	geo.NewPoint(25.4, -80.1),  // H1
	geo.NewPoint(47.3, -122.2), // H2
	geo.NewPoint(35.5, 139.4),  // H3
	geo.NewPoint(39.5, 116.2),  // H4
	geo.NewPoint(51.3, -0.5),   // H5
	geo.NewPoint(40.4, -73.5),  // H6
	geo.NewPoint(-33.2, -70.4), // H7
	geo.NewPoint(-41.1, 174.4), // H8
}

func TestCapacityDerivedFromBlockSize(t *testing.T) {
	tree, err := New(storage.NewDisk(4096), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// (4096 - 8) / (8 + 2*16) = 4088/40 = 102 entries per node.
	if got := tree.MaxEntries(); got != 102 {
		t.Errorf("MaxEntries = %d, want 102", got)
	}
	if got := tree.minE; got != 40 {
		t.Errorf("minimum fill = %d, want 40 (40%% fill)", got)
	}
	if got := tree.blocksForLevel(0); got != 1 {
		t.Errorf("payload-free node spans %d blocks, want 1", got)
	}
	// Only a point leaf's capacity differs from the interior levels':
	// (4096 - 8) / 24 = 170 entries to one block, a minimum fill of 68.
	for layout, want := range [layouts][2]int{{102, 40}, {170, 68}} {
		tree := layoutTree(t, layout, 4096, 8)
		if got := [2]int{tree.Capacity(0), tree.MinFill(0)}; got != want {
			t.Errorf("layout %d: leaf capacity and minimum fill %v, want %v", layout, got, want)
		}
		if got := [2]int{tree.Capacity(1), tree.MinFill(1)}; got != [2]int{102, 40} {
			t.Errorf("layout %d: interior capacity and minimum fill %v, want [102 40]", layout, got)
		}
		if layout == layoutPoints && tree.blocksForLevel(0) != 1 {
			t.Errorf("a full point leaf spans %d blocks", tree.blocksForLevel(0))
		}
	}
	// A fixed MaxEntries is every level's capacity.
	tree, err = New(storage.NewDisk(4096), Config{MaxEntries: 8, Scheme: keepScheme{orScheme{n: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Capacity(0) != 8 || tree.Capacity(1) != 8 || tree.entrySize(0) != pointEntrySize {
		t.Errorf("MaxEntries 8: capacities %d and %d, leaf entries of %d bytes",
			tree.Capacity(0), tree.Capacity(1), tree.entrySize(0))
	}
}

func TestConfigValidation(t *testing.T) {
	d := storage.NewDisk(4096)
	if _, err := New(d, Config{MaxEntries: 1}); err == nil {
		t.Error("capacity 1 accepted")
	}
	if _, err := New(storage.NewDisk(32), Config{}); err == nil {
		t.Error("block too small for two entries accepted")
	}
}

func TestInsertAndSearchSmall(t *testing.T) {
	tree := newTestTree(t, 3)
	for i, p := range hotels {
		if err := tree.Insert(uint64(i+1), geo.PointRect(p), nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("after insert %d: %v", i+1, err)
		}
	}
	if tree.Len() != len(hotels) {
		t.Errorf("Len = %d", tree.Len())
	}
	if tree.Height() < 2 {
		t.Errorf("height = %d, want >= 2 with capacity 3 and 8 objects", tree.Height())
	}
}

// TestPaperExample1 replays Example 1: incremental NN from [30.5, 100.0]
// must return H4, H3, H5, H8, H6, H1, H7, H2.
func TestPaperExample1(t *testing.T) {
	tree := newTestTree(t, 3)
	for i, p := range hotels {
		if err := tree.Insert(uint64(i+1), geo.PointRect(p), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	it := tree.NearestNeighbors(geo.NewPoint(30.5, 100.0), nil)
	want := []uint64{4, 3, 5, 8, 6, 1, 7, 2}
	var got []uint64
	prev := -1.0
	for {
		ref, dist, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if dist < prev {
			t.Fatalf("distances not non-decreasing: %g after %g", dist, prev)
		}
		prev = dist
		got = append(got, ref)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("NN order = %v, want %v (paper Example 1)", got, want)
	}
}

func TestNNAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		tree := newTestTree(t, 4+rng.Intn(12))
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
			if err := tree.Insert(uint64(i), geo.PointRect(pts[i]), nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		q := geo.NewPoint(rng.Float64()*1200-100, rng.Float64()*1200-100)
		// Brute-force order.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			da, db := q.Dist(pts[order[a]]), q.Dist(pts[order[b]])
			if da != db {
				return da < db
			}
			return order[a] < order[b]
		})
		it := tree.NearestNeighbors(q, nil)
		for rank := 0; rank < n; rank++ {
			ref, dist, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("trial %d: iterator exhausted at rank %d of %d", trial, rank, n)
			}
			wantDist := q.Dist(pts[order[rank]])
			if dist != wantDist {
				t.Fatalf("trial %d rank %d: dist %g, want %g (ref %d vs %d)",
					trial, rank, dist, wantDist, ref, order[rank])
			}
		}
		if _, _, ok, _ := it.Next(); ok {
			t.Fatalf("trial %d: iterator returned more than %d objects", trial, n)
		}
	}
}

func TestInsertRectangles(t *testing.T) {
	// Non-point objects: arbitrary rectangles must work too.
	tree := newTestTree(t, 4)
	rng := rand.New(rand.NewSource(2))
	rects := make([]geo.Rect, 100)
	for i := range rects {
		x, y := rng.Float64()*100, rng.Float64()*100
		rects[i] = geo.NewRect(geo.NewPoint(x, y), geo.NewPoint(x+rng.Float64()*10, y+rng.Float64()*10))
		if err := tree.Insert(uint64(i), rects[i], nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q := geo.NewPoint(50, 50)
	it := tree.NearestNeighbors(q, nil)
	prev := -1.0
	count := 0
	for {
		ref, dist, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if want := rects[ref].MinDist(q); dist != want {
			t.Fatalf("rect %d dist %g, want %g", ref, dist, want)
		}
		if dist < prev {
			t.Fatal("order violated")
		}
		prev = dist
		count++
	}
	if count != len(rects) {
		t.Errorf("returned %d of %d rects", count, len(rects))
	}
}

func TestDeleteBasic(t *testing.T) {
	tree := newTestTree(t, 3)
	for i, p := range hotels {
		if err := tree.Insert(uint64(i+1), geo.PointRect(p), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a nonexistent ref.
	ok, err := tree.Delete(99, geo.PointRect(hotels[0]))
	if err != nil || ok {
		t.Errorf("delete of missing ref: ok=%v err=%v", ok, err)
	}
	// Delete existing ref with wrong rect.
	ok, err = tree.Delete(1, geo.PointRect(geo.NewPoint(0, 0)))
	if err != nil || ok {
		t.Errorf("delete with wrong rect: ok=%v err=%v", ok, err)
	}
	// Delete every hotel.
	for i := range hotels {
		ok, err := tree.Delete(uint64(i+1), geo.PointRect(hotels[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("hotel %d not found for deletion", i+1)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("after delete %d: %v", i+1, err)
		}
	}
	if tree.Len() != 0 || tree.Height() != 0 {
		t.Errorf("tree not empty: len=%d height=%d", tree.Len(), tree.Height())
	}
	// Tree is reusable after emptying.
	if err := tree.Insert(1, geo.PointRect(hotels[0]), nil, nil); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 1 {
		t.Error("reinsert into emptied tree failed")
	}
}

func TestRandomInsertDeleteAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tree := newTestTree(t, 5)
	live := make(map[uint64]geo.Point)
	nextRef := uint64(0)
	for step := 0; step < 1500; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			p := geo.NewPoint(rng.Float64()*500, rng.Float64()*500)
			if err := tree.Insert(nextRef, geo.PointRect(p), nil, nil); err != nil {
				t.Fatal(err)
			}
			live[nextRef] = p
			nextRef++
		} else {
			// Delete a random live object.
			var ref uint64
			for r := range live {
				ref = r
				break
			}
			ok, err := tree.Delete(ref, geo.PointRect(live[ref]))
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("step %d: live object %d not found", step, ref)
			}
			delete(live, ref)
		}
		if step%100 == 99 {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if tree.Len() != len(live) {
		t.Fatalf("Len = %d, reference has %d", tree.Len(), len(live))
	}
	// Full NN sweep must return exactly the live set.
	it := tree.NearestNeighbors(geo.NewPoint(250, 250), nil)
	got := make(map[uint64]bool)
	for {
		ref, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if got[ref] {
			t.Fatalf("object %d returned twice", ref)
		}
		got[ref] = true
	}
	if len(got) != len(live) {
		t.Fatalf("NN sweep returned %d, want %d", len(got), len(live))
	}
	for ref := range live {
		if !got[ref] {
			t.Fatalf("live object %d missing from sweep", ref)
		}
	}
}

func TestInsertValidation(t *testing.T) {
	tree := newTestTree(t, 4)
	if err := tree.Insert(1, geo.PointRect(geo.NewPoint(1, 2, 3)), nil, nil); err == nil {
		t.Error("3-d rect accepted by 2-d tree")
	}
	if err := tree.Insert(1, geo.PointRect(geo.NewPoint(1, 2)), []byte{1}, nil); err == nil {
		t.Error("payload accepted by payload-free tree")
	}
}

func TestSeekPruneEverything(t *testing.T) {
	tree := newTestTree(t, 4)
	for i, p := range hotels {
		if err := tree.Insert(uint64(i+1), geo.PointRect(p), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	it := tree.Seek(newPerEntry(2, func(bool, int, geo.Rect, []byte, uint64) (float64, bool) { return 0, false }), nil)
	if _, _, ok, _ := it.Next(); ok {
		t.Error("pruned traversal returned an object")
	}
	// Root is expanded (never pruned), nothing else.
	if it.TraversalStats().NodesLoaded != 1 {
		t.Errorf("NodesLoaded = %d, want 1 (just the root)", it.TraversalStats().NodesLoaded)
	}
}

func TestIterPushAndPeek(t *testing.T) {
	tree := newTestTree(t, 4)
	for i, p := range hotels {
		if err := tree.Insert(uint64(i+1), geo.PointRect(p), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	it := tree.NearestNeighbors(geo.NewPoint(30.5, 100), nil)
	if _, ok := it.PeekScore(); !ok {
		t.Fatal("fresh iterator has empty queue")
	}
	ref, dist, ok, err := it.Next()
	if err != nil || !ok || ref != 4 {
		t.Fatalf("first = %d (%v, %v)", ref, ok, err)
	}
	// Push it back with a lower score; it must come out first again.
	it.Push(ref, dist-1)
	ref2, dist2, ok, err := it.Next()
	if err != nil || !ok || ref2 != ref || dist2 != dist-1 {
		t.Fatalf("pushed item: ref=%d score=%g ok=%v err=%v", ref2, dist2, ok, err)
	}
}

func TestEmptyTreeSearch(t *testing.T) {
	tree := newTestTree(t, 4)
	it := tree.NearestNeighbors(geo.NewPoint(0, 0), nil)
	if _, _, ok, _ := it.Next(); ok {
		t.Error("empty tree returned an object")
	}
	if _, ok := it.PeekScore(); ok {
		t.Error("empty tree has non-empty queue")
	}
	if root, err := tree.Root(); err != nil || root != nil {
		t.Errorf("Root = %v, %v", root, err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNodeSerializationRoundTrip(t *testing.T) {
	tree := newTestTree(t, 16)
	rng := rand.New(rand.NewSource(4))
	n := tree.allocNode(0)
	for i := 0; i < 16; i++ {
		lo := geo.NewPoint(rng.NormFloat64()*1e6, rng.NormFloat64()*1e6)
		hi := geo.NewPoint(lo[0]+rng.Float64(), lo[1]+rng.Float64())
		n.entries = append(n.entries, entry{ptr: rng.Uint64(), rect: geo.Rect{Lo: lo, Hi: hi}})
	}
	if err := tree.storeNode(n); err != nil {
		t.Fatal(err)
	}
	m, err := tree.loadNode(n.id)
	if err != nil {
		t.Fatal(err)
	}
	if m.level != n.level || len(m.entries) != len(n.entries) {
		t.Fatalf("header mismatch: %+v", m)
	}
	for i := range n.entries {
		if m.entries[i].ptr != n.entries[i].ptr || !m.entries[i].rect.Equal(n.entries[i].rect) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestCorruptNodeDetected(t *testing.T) {
	tree := newTestTree(t, 4)
	if err := tree.Insert(1, geo.PointRect(geo.NewPoint(1, 1)), nil, nil); err != nil {
		t.Fatal(err)
	}
	// Smash the root block's header.
	bad := make([]byte, 8)
	for i := range bad {
		bad[i] = 0xFF
	}
	if err := tree.dev.Write(tree.root, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.LoadNode(tree.root); err == nil {
		t.Error("corrupt node loaded without error")
	}
}

func TestIOFaultPropagates(t *testing.T) {
	disk := storage.NewDisk(4096)
	tree, err := New(disk, Config{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tree.Insert(uint64(i), geo.PointRect(geo.NewPoint(float64(i), 0)), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("disk gone")
	disk.SetFault(func(storage.Op, storage.BlockID) error { return boom })
	it := tree.NearestNeighbors(geo.NewPoint(0, 0), nil)
	if _, _, _, err := it.Next(); !errors.Is(err, boom) {
		t.Errorf("search error = %v, want fault", err)
	}
	if err := tree.Insert(99, geo.PointRect(geo.NewPoint(9, 9)), nil, nil); !errors.Is(err, boom) {
		t.Errorf("insert error = %v, want fault", err)
	}
	if _, err := tree.Delete(0, geo.PointRect(geo.NewPoint(0, 0))); !errors.Is(err, boom) {
		t.Errorf("delete error = %v, want fault", err)
	}
}

func TestQuadraticSplitFillBounds(t *testing.T) {
	tree := newTestTree(t, 10) // minE = 4
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		entries := make([]entry, 11)
		for i := range entries {
			p := geo.NewPoint(rng.Float64()*100, rng.Float64()*100)
			entries[i] = entry{ptr: uint64(i), rect: geo.PointRect(p)}
		}
		a, b := tree.quadraticSplit(entries, tree.minE)
		if len(a)+len(b) != len(entries) {
			t.Fatalf("split lost entries: %d + %d != %d", len(a), len(b), len(entries))
		}
		if len(a) < tree.minE || len(b) < tree.minE {
			t.Fatalf("split under min fill: %d / %d (min %d)", len(a), len(b), tree.minE)
		}
	}
}

func TestComputeStats(t *testing.T) {
	tree := newTestTree(t, 4)
	for i := 0; i < 50; i++ {
		if err := tree.Insert(uint64(i), geo.PointRect(geo.NewPoint(float64(i%10), float64(i/10))), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	s, err := tree.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Objects != 50 || s.Nodes != tree.NumNodes() || s.Height != tree.Height() {
		t.Errorf("stats = %+v", s)
	}
	if s.LeafNodes == 0 || s.AvgFanout <= 0 || s.SizeBytes <= 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDuplicatePointsAndRefs(t *testing.T) {
	// Many objects at the same location must all be indexed and retrievable.
	tree := newTestTree(t, 3)
	p := geo.NewPoint(5, 5)
	for i := 0; i < 20; i++ {
		if err := tree.Insert(uint64(i), geo.PointRect(p), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	it := tree.NearestNeighbors(p, nil)
	seen := make(map[uint64]bool)
	for {
		ref, dist, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if dist != 0 {
			t.Errorf("dist = %g", dist)
		}
		seen[ref] = true
	}
	if len(seen) != 20 {
		t.Errorf("got %d distinct refs, want 20", len(seen))
	}
	// Deleting one specific ref among identical rects removes exactly one.
	ok, err := tree.Delete(7, geo.PointRect(p))
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if tree.Len() != 19 {
		t.Errorf("Len = %d", tree.Len())
	}
}
