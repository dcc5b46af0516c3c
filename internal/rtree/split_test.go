package rtree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

func TestAllSplitsPreserveEntriesAndFill(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	t.Run("quadratic", func(t *testing.T) {
		tree, err := New(storage.NewDisk(4096), Config{MaxEntries: 10})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			entries := make([]entry, 11)
			seen := make(map[uint64]bool)
			for i := range entries {
				x, y := rng.Float64()*100, rng.Float64()*100
				entries[i] = entry{
					ptr: uint64(trial*100 + i),
					rect: geo.NewRect(
						geo.NewPoint(x, y),
						geo.NewPoint(x+rng.Float64()*5, y+rng.Float64()*5),
					),
				}
				seen[entries[i].ptr] = true
			}
			a, b := tree.quadraticSplit(entries)
			if len(a)+len(b) != len(entries) {
				t.Fatalf("trial %d: lost entries %d+%d", trial, len(a), len(b))
			}
			if len(a) < tree.minE || len(b) < tree.minE {
				t.Fatalf("trial %d: under min fill %d/%d", trial, len(a), len(b))
			}
			for _, e := range append(append([]entry{}, a...), b...) {
				if !seen[e.ptr] {
					t.Fatalf("trial %d: unknown entry %d", trial, e.ptr)
				}
				delete(seen, e.ptr)
			}
			if len(seen) != 0 {
				t.Fatalf("trial %d: %d entries vanished", trial, len(seen))
			}
		}
	})
}

func TestAllSplitsIdenticalRects(t *testing.T) {
	// Degenerate input: every entry identical. The split must still be legal.
	tree, err := New(storage.NewDisk(4096), Config{MaxEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]entry, 7)
	for i := range entries {
		entries[i] = entry{ptr: uint64(i), rect: geo.PointRect(geo.NewPoint(5, 5))}
	}
	a, b := tree.quadraticSplit(entries)
	if len(a)+len(b) != 7 || len(a) < tree.minE || len(b) < tree.minE {
		t.Errorf("degenerate split %d/%d", len(a), len(b))
	}
}

func TestTreesCorrectUnderEverySplit(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	pts := make([]geo.Point, 400)
	for i := range pts {
		pts[i] = geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
	}
	q := geo.NewPoint(500, 500)
	order := make([]int, len(pts))
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
	t.Run("quadratic", func(t *testing.T) {
		tree, err := New(storage.NewDisk(4096), Config{MaxEntries: 8})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if err := tree.Insert(uint64(i), geo.PointRect(p), nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		it := tree.NearestNeighbors(q, nil)
		for rank := 0; rank < 50; rank++ {
			ref, _, ok, err := it.Next()
			if err != nil || !ok {
				t.Fatalf("rank %d: %v %v", rank, ok, err)
			}
			if ref != uint64(order[rank]) {
				t.Fatalf("rank %d: %d, want %d", rank, ref, order[rank])
			}
		}
		// Deletions stay correct too.
		for i := 0; i < 100; i++ {
			ok, err := tree.Delete(uint64(i), geo.PointRect(pts[i]))
			if err != nil || !ok {
				t.Fatalf("delete %d: %v %v", i, ok, err)
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFailedInsertFreesUnlinkedNodes fails each write, in turn, of every
// insert that grows a 4-entry tree from 0 to 90 objects — leaf splits,
// splits that climb and the root's growth among them. Whatever write
// fails, the tree counts every block the device holds, no node points at
// a freed block, and every node the insert allocated and kept is held by
// a node that was there before it (or by the root): a sibling whose holder
// was not written is freed. A failed first write, or the leaf's own write
// after its sibling's, leaves the tree whole: it passes CheckInvariants
// (every counted node reachable) and holds what it held, and the retried
// insert succeeds. A later write's failure loses the half of a split whose
// holder was not written, and with it the nodes under that half; that is
// not checked here.
func TestFailedInsertFreesUnlinkedNodes(t *testing.T) {
	pt := func(i int) geo.Rect {
		return geo.PointRect(geo.NewPoint(float64(i*37%101), float64(i*53%97)))
	}
	build := func(n int) (*Tree, *storage.Disk) {
		disk := storage.NewDisk(4096)
		tree, err := New(disk, Config{MaxEntries: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := tree.Insert(uint64(i), pt(i), nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		return tree, disk
	}
	// reach adds id and every node under it to seen.
	var reach func(tree *Tree, id storage.BlockID, seen map[storage.BlockID]bool)
	reach = func(tree *Tree, id storage.BlockID, seen map[storage.BlockID]bool) {
		n, err := tree.loadNode(id)
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		seen[id] = true
		if n.level > 0 {
			for _, e := range n.entries {
				reach(tree, storage.BlockID(e.ptr), seen)
			}
		}
	}
	boom := errors.New("write fails")
	for n := 1; n < 90; n++ {
		dry, disk := build(n)
		writes := 0
		disk.SetFault(func(op storage.Op, _ storage.BlockID) error {
			if op == storage.OpWrite {
				writes++
			}
			return nil
		})
		nodes := dry.nodes
		if err := dry.Insert(uint64(n), pt(n), nil, nil); err != nil {
			t.Fatal(err)
		}
		splits := dry.nodes > nodes
		for k := 1; k <= writes; k++ {
			tree, disk := build(n)
			next := storage.FirstBlock + storage.BlockID(disk.NumBlocks())
			w := 0
			disk.SetFault(func(op storage.Op, _ storage.BlockID) error {
				if op == storage.OpWrite {
					if w++; w == k {
						return boom
					}
				}
				return nil
			})
			if err := tree.Insert(uint64(n), pt(n), nil, nil); !errors.Is(err, boom) {
				t.Fatalf("n=%d: insert through failing write %d of %d: %v", n, k, writes, err)
			}
			disk.SetFault(nil)
			if tree.nodes != disk.NumBlocks() {
				t.Fatalf("n=%d, write %d of %d failed: the tree counts %d nodes, the device holds %d blocks", n, k, writes, tree.nodes, disk.NumBlocks())
			}
			held := make(map[storage.BlockID]bool)
			for id := storage.FirstBlock; id < next; id++ {
				reach(tree, id, held)
			}
			reach(tree, tree.root, held)
			for id := next; id < next+storage.BlockID(2*tree.height+2); id++ {
				if _, err := disk.Read(id); err == nil && !held[id] {
					t.Fatalf("n=%d, write %d of %d failed: node %d, allocated by the insert, is held by no node", n, k, writes, id)
				}
			}
			if k == 1 || (k == 2 && splits) {
				if err := tree.CheckInvariants(); err != nil || tree.Len() != n {
					t.Fatalf("n=%d, write %d of %d failed: %v, %d objects", n, k, writes, err, tree.Len())
				}
				if err := tree.Insert(uint64(n), pt(n), nil, nil); err != nil {
					t.Fatal(err)
				}
				if err := tree.CheckInvariants(); err != nil {
					t.Fatalf("n=%d, retried after write %d: %v", n, k, err)
				}
			}
		}
	}
}
