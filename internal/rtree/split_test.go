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
			a, b := tree.quadraticSplit(entries, tree.minE)
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
	a, b := tree.quadraticSplit(entries, tree.minE)
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

// leafAux is a scheme whose leaf entries carry an n-byte payload and whose
// interior entries carry none, so leaves span several blocks and interior
// nodes few.
type leafAux struct{ n int }

func (s leafAux) EntryAuxLen(level int) int {
	if level == 0 {
		return s.n
	}
	return 0
}

func (leafAux) NodeAux(NodeReader, *Node) ([]byte, error) { return nil, nil }

// TestFailedInsertFreesUnlinkedNodes fails each write, in turn, of inserts
// into two trees. The insert-built start grows a 4-entry tree from 0 to 90
// objects — leaf splits, splits that climb and the root's growth among
// them. The packed start is a BulkLoaded tree (and checkpointed, so its
// device holds a state block) whose root and part-full leaves have runs
// shorter than capacity; its inserts are the ones that move a node to a
// capacity run, up to the one that moves the root. Whatever write fails,
// the tree counts every node run the device holds and the device holds
// nothing else, no node names a freed run, and every node the insert
// allocated and kept is held by a node that was there before it (or by the
// root): a sibling or moved run whose holder was not written is freed, and
// a moved node's old run is kept. A failed first write, or (insert-built)
// the leaf's own write after its sibling's, leaves the tree whole: it passes
// CheckInvariants (every counted node reachable) and holds what it held,
// and the retried insert succeeds. A later write's failure loses the half of
// a split whose holder was not written, and with it the nodes under that
// half; that is not checked here. Neither is a torn write of a multi-block
// holder, which the packed start's geometry avoids: its moved leaves' holder
// is a one-block root.
func TestFailedInsertFreesUnlinkedNodes(t *testing.T) {
	pt := func(i int) geo.Rect {
		return geo.PointRect(geo.NewPoint(float64(i*37%101), float64(i*53%97)))
	}
	aux := func(tree *Tree, i int) []byte {
		b := make([]byte, tree.AuxLen(0))
		for j := range b {
			b[j] = byte(i + j)
		}
		return b
	}
	const packedBase = 40
	for _, start := range []struct {
		name string
		// build returns a tree holding objects 0..n-1 and its state
		// block, if it has one.
		build func(n int) (*Tree, *storage.Disk, storage.BlockID)
		from  int
		// last reports whether the insert of object n, just made on dry,
		// is the last one to fail.
		last func(dry *Tree, n int) bool
	}{
		{"insert-built", func(n int) (*Tree, *storage.Disk, storage.BlockID) {
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
			return tree, disk, storage.NilBlock
		}, 1, func(_ *Tree, n int) bool { return n == 89 }},
		// 256-byte blocks, 12 entries a node: a leaf's capacity run is 4
		// blocks (3, 7, 11 and 12 entries fit 1 to 4), an interior node's
		// 2 (6 entries fit 1). The pack leaves two 8-entry leaves on
		// 3 blocks and a 4-entry root on 1.
		{"packed", func(n int) (*Tree, *storage.Disk, storage.BlockID) {
			disk := storage.NewDisk(256)
			tree, err := New(disk, Config{MaxEntries: 12, Scheme: leafAux{24}})
			if err != nil {
				t.Fatal(err)
			}
			bulk := make([]BulkEntry, packedBase)
			for i := range bulk {
				bulk[i] = BulkEntry{Ref: uint64(i), Rect: pt(i), Aux: aux(tree, i)}
			}
			if err := tree.BulkLoad(bulk, nil); err != nil {
				t.Fatal(err)
			}
			state, err := tree.Checkpoint(storage.NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			for i := packedBase; i < n; i++ {
				if err := tree.Insert(uint64(i), pt(i), aux(tree, i), nil); err != nil {
					t.Fatal(err)
				}
			}
			return tree, disk, state
		}, packedBase, func(dry *Tree, n int) bool {
			root, err := dry.loadNode(dry.root)
			if err != nil {
				t.Fatal(err)
			}
			if n > 200 {
				t.Fatal("no insert moved the root")
			}
			return root.run == dry.blocksForLevel(root.level)
		}},
	} {
		t.Run(start.name, func(t *testing.T) {
			// reach adds id and every node under it to seen, with its run.
			var reach func(tree *Tree, id storage.BlockID, seen map[storage.BlockID]int)
			reach = func(tree *Tree, id storage.BlockID, seen map[storage.BlockID]int) {
				n, err := tree.loadNode(id)
				if err != nil {
					t.Fatalf("node %d: %v", id, err)
				}
				seen[id] = n.run
				if n.level > 0 {
					for _, e := range n.entries {
						reach(tree, storage.BlockID(e.ptr), seen)
					}
				}
			}
			if start.name == "packed" {
				tree, _, _ := start.build(packedBase)
				runs := make(map[storage.BlockID]int)
				reach(tree, tree.root, runs)
				tight := 0
				for id, run := range runs {
					n, _ := tree.loadNode(id)
					if run < tree.blocksForLevel(n.level) {
						tight++
					}
				}
				if runs[tree.root] >= tree.blocksForLevel(tree.height-1) || tight < 2 {
					t.Fatalf("pack: runs %v, root %d: want a right-sized root and part-full leaves", runs, tree.root)
				}
			}
			boom := errors.New("write fails")
			moves := 0
			for n := start.from; ; n++ {
				dry, disk, _ := start.build(n)
				before := make(map[storage.BlockID]int)
				reach(dry, dry.root, before)
				writes := 0
				disk.SetFault(func(op storage.Op, _ storage.BlockID) error {
					if op == storage.OpWrite {
						writes++
					}
					return nil
				})
				nodes := dry.nodes
				if err := dry.Insert(uint64(n), pt(n), aux(dry, n), nil); err != nil {
					t.Fatal(err)
				}
				splits := dry.nodes > nodes
				after := make(map[storage.BlockID]int)
				reach(dry, dry.root, after)
				moved := false
				for id := range before {
					if _, ok := after[id]; !ok {
						moved = true
					}
				}
				if moved {
					if start.name == "insert-built" {
						t.Fatalf("n=%d: an insert-built tree moved a node", n)
					}
					moves++
					t.Logf("n=%d: the insert moves a node, in %d writes", n, writes)
				}
				for k := 1; k <= writes && (moved || start.name == "insert-built"); k++ {
					tree, disk, state := start.build(n)
					old := make(map[storage.BlockID]int)
					reach(tree, tree.root, old)
					w := 0
					disk.SetFault(func(op storage.Op, _ storage.BlockID) error {
						if op == storage.OpWrite {
							if w++; w == k {
								return boom
							}
						}
						return nil
					})
					if err := tree.Insert(uint64(n), pt(n), aux(tree, n), nil); !errors.Is(err, boom) {
						t.Fatalf("n=%d: insert through failing write %d of %d: %v", n, k, writes, err)
					}
					disk.SetFault(nil)
					// held: every node reachable from the root or from a node
					// that was there before the insert and was not freed.
					held := make(map[storage.BlockID]int)
					hi := state
					for id, run := range old {
						hi = max(hi, id+storage.BlockID(run))
						if _, err := disk.Read(id); err == nil {
							reach(tree, id, held)
						}
					}
					reach(tree, tree.root, held)
					blocks := 0
					covered := map[storage.BlockID]bool{state: state != storage.NilBlock}
					for id, run := range held {
						blocks += run
						for b := 0; b < run; b++ {
							covered[id+storage.BlockID(b)] = true
						}
					}
					if state != storage.NilBlock {
						blocks++
					}
					if tree.nodes != len(held) || blocks != disk.NumBlocks() {
						t.Fatalf("n=%d, write %d of %d failed: the tree counts %d nodes, %d are held with %d blocks (and the state block); the device holds %d blocks",
							n, k, writes, tree.nodes, len(held), blocks, disk.NumBlocks())
					}
					for id := storage.FirstBlock; id < hi+64; id++ {
						if _, err := disk.Read(id); err == nil && !covered[id] {
							t.Fatalf("n=%d, write %d of %d failed: block %d is held by no node", n, k, writes, id)
						}
					}
					if k == 1 || (k == 2 && splits && start.name == "insert-built") {
						if err := tree.CheckInvariants(); err != nil || tree.Len() != n {
							t.Fatalf("n=%d, write %d of %d failed: %v, %d objects", n, k, writes, err, tree.Len())
						}
						if err := tree.Insert(uint64(n), pt(n), aux(tree, n), nil); err != nil {
							t.Fatal(err)
						}
						if err := tree.CheckInvariants(); err != nil {
							t.Fatalf("n=%d, retried after write %d: %v", n, k, err)
						}
					}
				}
				if start.last(dry, n) {
					break
				}
			}
			if start.name == "packed" && moves < 3 {
				t.Fatalf("%d inserts moved a node, want both part-full leaves and the root", moves)
			}
		})
	}
}
