package rtree

import (
	"fmt"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

// Delete removes the object entry with the given reference and MBR. It
// returns false if no such entry exists. This is the paper's Delete
// algorithm (Figure 6): FindLeaf locates the leaf holding the entry, the
// entry is removed, and CondenseTree — modified to maintain payloads through
// the AuxScheme exactly like AdjustTree — re-balances the tree, reinserting
// entries of underfull nodes and shrinking the root when it is left with a
// single child.
func (t *Tree) Delete(ref uint64, rect geo.Rect) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == storage.NilBlock {
		return false, nil
	}
	if rect.Dim() != geo.Dims {
		return false, fmt.Errorf("rtree: delete rect dimension %d, want %d", rect.Dim(), geo.Dims)
	}
	path, entryIdx, err := t.findLeaf(t.root, ref, rect, nil)
	if err != nil {
		return false, err
	}
	if path == nil {
		return false, nil
	}
	leaf := path[len(path)-1].node
	leaf.entries = append(leaf.entries[:entryIdx], leaf.entries[entryIdx+1:]...)
	if err := t.condenseTree(path); err != nil {
		return false, err
	}
	t.size--
	return true, nil
}

// findLeaf searches depth-first for the leaf containing an entry with the
// given reference and rectangle, following every subtree whose MBR contains
// rect (overlap means several may qualify). It returns the descent path and
// the entry index, or a nil path if not found.
func (t *Tree) findLeaf(id storage.BlockID, ref uint64, rect geo.Rect, prefix []pathStep) ([]pathStep, int, error) {
	n, err := t.loadNode(id)
	if err != nil {
		return nil, 0, err
	}
	// Copy the prefix: append-in-place would let sibling descents share a
	// backing array with the path we return.
	path := make([]pathStep, len(prefix)+1)
	copy(path, prefix)
	path[len(prefix)] = pathStep{node: n}
	if n.level == 0 {
		for i := range n.entries {
			if n.entries[i].ptr == ref && n.entries[i].rect.Equal(rect) {
				return path, i, nil
			}
		}
		return nil, 0, nil
	}
	for i := range n.entries {
		if !n.entries[i].rect.Contains(rect) {
			continue
		}
		path[len(path)-1].childIdx = i
		found, idx, err := t.findLeaf(storage.BlockID(n.entries[i].ptr), ref, rect, path)
		if err != nil {
			return nil, 0, err
		}
		if found != nil {
			return found, idx, nil
		}
	}
	return nil, 0, nil
}

// orphan is a node removed by CondenseTree whose entries await reinsertion.
type orphan struct {
	level   int
	entries []entry
}

// condenseTree walks the deletion path from the leaf to the root. Underfull
// nodes are removed and their entries queued for reinsertion; surviving
// nodes get their parent entry's MBR and payload refreshed. Finally the
// queued entries are reinserted at their original levels and a root with one
// child is collapsed.
func (t *Tree) condenseTree(path []pathStep) error {
	var orphans []orphan
	for i := len(path) - 1; i >= 1; i-- {
		n := path[i].node
		parent := path[i-1].node
		idx := path[i-1].childIdx
		if len(n.entries) < t.MinFill(n.level) {
			parent.entries = append(parent.entries[:idx], parent.entries[idx+1:]...)
			orphans = append(orphans, orphan{level: n.level, entries: n.entries})
			t.freeNode(n)
			continue
		}
		if err := t.storeNode(n); err != nil {
			return err
		}
		// A sized level keeps its payload: a superset of n's words before
		// the delete is one after it.
		aux := parent.entries[idx].aux
		if !t.sized(n.level + 1) {
			var err error
			if aux, err = t.nodeAux(n); err != nil {
				return err
			}
		}
		parent.entries[idx] = entry{ptr: uint64(n.id), rect: n.mbr(), aux: aux}
	}

	root := path[0].node
	if err := t.storeNode(root); err != nil {
		return err
	}
	if err := t.shrinkRoot(root); err != nil {
		return err
	}

	// Reinsert orphaned entries, lowest level first so object entries land
	// before subtree entries that may need a taller tree.
	for lvl := 0; ; lvl++ {
		any := false
		for _, o := range orphans {
			if o.level != lvl {
				if o.level > lvl {
					any = true
				}
				continue
			}
			for _, e := range o.entries {
				if err := t.reinsert(e, o.level); err != nil {
					return err
				}
			}
		}
		if !any {
			break
		}
	}
	return nil
}

// reinsert places an orphaned entry back into the tree. Entries from an
// orphaned node at level L describe subtrees rooted at level L-1 (objects
// when L = 0) and must re-enter a node at level L. If the tree has shrunk
// below that height, the subtree is dissolved: its objects are reinserted
// individually. An object entry is lifted into the sized ancestors it lands
// under by the scheme, when it is an ObjectLifter; a subtree entry, or an
// object of any other scheme, has no words to lift, so those ancestors
// become all ones (see parentAux).
func (t *Tree) reinsert(e entry, level int) error {
	if t.root == storage.NilBlock {
		if level == 0 {
			root := t.allocNode(0)
			root.entries = []entry{e}
			if err := t.storeNode(root); err != nil {
				return err
			}
			t.root = root.id
			t.height = 1
			return nil
		}
		return t.dissolve(e)
	}
	rootLevel := t.height - 1
	if level > 0 && rootLevel < level {
		return t.dissolve(e)
	}
	var lift Lift
	if l, ok := t.scheme.(ObjectLifter); ok && level == 0 {
		lift = l.LiftObject(e.ptr)
	}
	return t.insertAtLevel(e, level, lift)
}

// dissolve reinserts every object of the subtree referenced by e one by one
// and frees the subtree's nodes.
func (t *Tree) dissolve(e entry) error {
	n, err := t.loadNode(storage.BlockID(e.ptr))
	if err != nil {
		return err
	}
	for _, child := range n.entries {
		if n.level == 0 {
			if err := t.reinsert(child, 0); err != nil {
				return err
			}
		} else {
			if err := t.dissolve(child); err != nil {
				return err
			}
		}
	}
	t.freeNode(n)
	return nil
}

// shrinkRoot collapses the root while it is an interior node with a single
// child, and resets the tree when the root is an empty leaf.
func (t *Tree) shrinkRoot(root *Node) error {
	for {
		if root.level == 0 {
			if len(root.entries) == 0 {
				t.freeNode(root)
				t.root = storage.NilBlock
				t.height = 0
				t.lens = nil // an empty tree has no sized levels
			}
			return nil
		}
		if len(root.entries) > 1 {
			return nil
		}
		if len(root.entries) == 0 {
			// Unreachable through the public API (an interior root keeps at
			// least one child through CondenseTree), but guard anyway.
			t.freeNode(root)
			t.root = storage.NilBlock
			t.height = 0
			t.lens = nil
			return nil
		}
		childID := storage.BlockID(root.entries[0].ptr)
		t.freeNode(root)
		child, err := t.loadNode(childID)
		if err != nil {
			return err
		}
		t.root = child.id
		t.height = child.level + 1
		root = child
	}
}
