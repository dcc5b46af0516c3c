package rtree

import (
	"fmt"
	"slices"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

// pathStep records one level of a root-to-node descent: the node and the
// index of the entry through which the descent continued (meaningless in the
// final step).
type pathStep struct {
	node     *Node
	childIdx int
}

// Insert adds an object entry (ref, rect, aux) to the tree. This is the
// paper's Insert algorithm (Figure 5): ChooseLeaf descends by least area
// enlargement [Gut84], the leaf absorbs the entry, an overflowing node is
// split with the Quadratic Split technique, and AdjustTree propagates MBRs
// — and, through the AuxScheme, signatures — to the ancestors.
//
// aux must have the leaf-entry length (nil for a plain tree); a tree on a
// LeafKeeper ignores it and takes the keeper's, which must hold ref, and
// rect must be a point. An ancestor
// entry at a level the pack sized (see BulkLoad) is not recomputed: it
// superimposes lift(length), the object's payload at that level's length,
// and a split gives both halves' entries the split node's old payload plus
// lift's, a superset of each half. So an insert reads no object. A nil
// lift sets those entries to all ones; a 0-length level holds nothing.
//
// A failed insert frees every node it allocated and did not link. A failed
// first write leaves the tree as it was; a later one leaves the writes made
// before it on the device: the leaf may hold the entry while its
// ancestors' MBRs and payloads do not cover it (and Len does not count
// it), or a node may keep one half of its split while the other half is
// lost with the freed sibling.
func (t *Tree) Insert(ref uint64, rect geo.Rect, aux []byte, lift Lift) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkObject(rect); err != nil {
		return fmt.Errorf("rtree: insert: %w", err)
	}
	kept, err := t.keptAux(ref, aux)
	if err != nil {
		return err
	}
	if want := t.AuxLen(0); len(kept) != want {
		return fmt.Errorf("rtree: insert payload %d bytes, want %d", len(kept), want)
	}
	e := entry{ptr: ref, rect: rect.Clone(), aux: kept}

	if t.root == storage.NilBlock {
		root := t.allocNode(0)
		root.entries = []entry{e}
		if err := t.storeNode(root); err != nil {
			t.freeNode(root)
			return err
		}
		t.root = root.id
		t.height = 1
		t.size = 1
		return nil
	}

	if err := t.insertAtLevel(e, 0, lift); err != nil {
		return err
	}
	t.size++
	return nil
}

// insertAtLevel places entry e into a node at the given level (0 inserts an
// object into a leaf; higher levels reattach orphaned subtrees during
// CondenseTree), lifting it into sized ancestors through lift (see Insert).
// The caller holds the write lock.
func (t *Tree) insertAtLevel(e entry, level int, lift Lift) error {
	path, err := t.chooseNode(e.rect, level)
	if err != nil {
		return err
	}
	n := path[len(path)-1].node
	n.entries = append(n.entries, e)

	var split *Node
	if len(n.entries) > t.Capacity(n.level) {
		split, err = t.splitNode(n)
		if err != nil {
			return err
		}
	}
	return t.adjustTree(path, split, lift)
}

// chooseNode descends from the root to a node at the target level, at each
// step picking the child whose MBR needs the least area enlargement to
// include rect (ties broken by smallest area, then lowest index — Guttman's
// ChooseLeaf). It returns the full descent path; the last step is the chosen
// node.
func (t *Tree) chooseNode(rect geo.Rect, level int) ([]pathStep, error) {
	n, err := t.loadNode(t.root)
	if err != nil {
		return nil, err
	}
	if n.level < level {
		return nil, fmt.Errorf("rtree: cannot place entry at level %d in tree of height %d", level, t.height)
	}
	path := []pathStep{{node: n}}
	for n.level > level {
		best, bestEnl, bestArea := -1, 0.0, 0.0
		for i := range n.entries {
			enl := n.entries[i].rect.Enlargement(rect)
			area := n.entries[i].rect.Area()
			if best == -1 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		path[len(path)-1].childIdx = best
		child, err := t.loadNode(storage.BlockID(n.entries[best].ptr))
		if err != nil {
			return nil, err
		}
		path = append(path, pathStep{node: child})
		n = child
	}
	return path, nil
}

// splitNode divides an overflowing node's entries between n and a freshly
// allocated sibling with Guttman's Quadratic Split, returning the sibling.
// Both nodes end up with at least the minimum fill m entries.
func (t *Tree) splitNode(n *Node) (*Node, error) {
	groupA, groupB := t.quadraticSplit(n.entries, t.MinFill(n.level))
	sibling := t.allocNode(n.level)
	n.entries = groupA
	sibling.entries = groupB
	return sibling, nil
}

// quadraticSplit implements [Gut84] §3.5.2: PickSeeds chooses the pair of
// entries that would waste the most area if grouped together; the rest are
// assigned one by one by PickNext (greatest difference of enlargements),
// with ties broken by smaller area, then smaller group. If one group gets
// so large that the other needs every remaining entry to reach minimum
// fill minE, the remainder is assigned wholesale.
func (t *Tree) quadraticSplit(entries []entry, minE int) (groupA, groupB []entry) {
	seedA, seedB := pickSeeds(entries)
	groupA = append(groupA, entries[seedA])
	groupB = append(groupB, entries[seedB])
	rectA := entries[seedA].rect.Clone()
	rectB := entries[seedB].rect.Clone()

	rest := make([]entry, 0, len(entries)-2)
	for i := range entries {
		if i != seedA && i != seedB {
			rest = append(rest, entries[i])
		}
	}

	for len(rest) > 0 {
		// If one group must take everything left to reach minimum fill, do it.
		if len(groupA)+len(rest) == minE {
			groupA = append(groupA, rest...)
			return groupA, groupB
		}
		if len(groupB)+len(rest) == minE {
			groupB = append(groupB, rest...)
			return groupA, groupB
		}
		// PickNext: entry with maximum |d1 - d2|.
		next, bestDiff := 0, -1.0
		for i := range rest {
			d1 := rectA.Enlargement(rest[i].rect)
			d2 := rectB.Enlargement(rest[i].rect)
			diff := d1 - d2
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				next, bestDiff = i, diff
			}
		}
		e := rest[next]
		rest = append(rest[:next], rest[next+1:]...)
		d1 := rectA.Enlargement(e.rect)
		d2 := rectB.Enlargement(e.rect)
		toA := d1 < d2
		if d1 == d2 {
			// Resolve by smaller area, then fewer entries.
			a1, a2 := rectA.Area(), rectB.Area()
			switch {
			case a1 != a2:
				toA = a1 < a2
			default:
				toA = len(groupA) <= len(groupB)
			}
		}
		if toA {
			groupA = append(groupA, e)
			rectA = rectA.Union(e.rect)
		} else {
			groupB = append(groupB, e)
			rectB = rectB.Union(e.rect)
		}
	}
	return groupA, groupB
}

// pickSeeds returns the indexes of the two entries that waste the most area
// when paired: maximize area(union) - area(e1) - area(e2).
func pickSeeds(entries []entry) (int, int) {
	bestA, bestB, bestWaste := 0, 1, 0.0
	first := true
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			waste := entries[i].rect.Union(entries[j].rect).Area() -
				entries[i].rect.Area() - entries[j].rect.Area()
			if first || waste > bestWaste {
				bestA, bestB, bestWaste = i, j, waste
				first = false
			}
		}
	}
	return bestA, bestB
}

// adjustTree writes the modified node back and propagates MBR and payload
// changes to the root, splitting ancestors that overflow and growing the
// tree when the root itself splits. split is the new sibling produced by a
// split of the deepest node on the path, or nil.
//
// This is the paper's AdjustTree modification: alongside each MBR update,
// the parent entry's payload is recomputed through the AuxScheme, so
// signature bits set in a node propagate to all ancestors — or, at a sized
// level, superimposed from lift (see parentAux).
//
// A node that gained an entry its run cannot hold (one BulkLoad packed to
// its entries) moves to a capacity run and is rewritten there, and its
// parent entry names the new run. A node that splits was full, so it holds
// a capacity run already; only a node that gains an entry without splitting
// can outgrow its run, and the nodes above it gain none. So at most one node
// moves per insert, with no split beside it.
//
// A split's sibling is written before the node it split from, so a failed
// first write leaves that node whole on the device. A sibling, or a moved
// node's new run, is linked once a node the root reaches holds its entry on
// the device (or it is the root); a failed write or payload frees every
// node this insert allocated that is not, so the tree's node count stays its
// reachable nodes. A moved node's old run is freed only once its new run is
// linked: until then the old run is what its parent names. The writes that
// succeeded before the failure stay (see Insert).
func (t *Tree) adjustTree(path []pathStep, split *Node, lift Lift) (err error) {
	// fresh holds the unlinked nodes; fresh[:linked] link once the next
	// node up the path is written.
	var fresh []*Node
	linked := 0
	if split != nil {
		fresh = append(fresh, split)
	}
	// left is the run a moved node left, freed once the new one links.
	var left *Node
	defer func() {
		if err != nil {
			for _, n := range fresh {
				t.freeNode(n)
			}
		}
	}()
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i].node
		if split != nil {
			if err := t.storeNode(split); err != nil {
				return err
			}
		}
		moving := !t.fits(n)
		if moving {
			left = &Node{id: n.id, run: n.run}
			to := t.allocNode(n.level)
			n.id, n.run = to.id, to.run
			fresh = append(fresh, n)
		}
		if err := t.storeNode(n); err != nil {
			return err
		}
		if !moving {
			fresh, linked = fresh[linked:], 0
			if left != nil {
				t.freeNode(left) // n names the moved node's new run
				left = nil
			}
		}

		if i == 0 {
			// n is the root.
			if split != nil {
				return t.growRoot(n, split)
			}
			if moving {
				t.root = n.id
				t.freeNode(left)
			}
			return nil
		}

		parent := path[i-1].node
		idx := path[i-1].childIdx
		old := parent.entries[idx].aux
		aux, err := t.parentAux(n, old, lift)
		if err != nil {
			return err
		}
		parent.entries[idx] = entry{ptr: uint64(n.id), rect: n.mbr(), aux: aux}
		if moving {
			linked = len(fresh)
		}

		var nextSplit *Node
		if split != nil {
			splitAux, err := t.parentAux(split, old, lift)
			if err != nil {
				return err
			}
			parent.entries = append(parent.entries, entry{
				ptr: uint64(split.id), rect: split.mbr(), aux: splitAux,
			})
			linked = len(fresh)
			if len(parent.entries) > t.Capacity(parent.level) {
				nextSplit, err = t.splitNode(parent)
				if err != nil {
					return err
				}
				if !slices.ContainsFunc(parent.entries, func(e entry) bool { return e.ptr == uint64(split.id) }) {
					linked = 0 // split's entry went to the new sibling: it links with it
				}
				fresh = append(fresh, nextSplit)
			}
		}
		split = nextSplit
	}
	return nil
}

// parentAux returns the payload of node n's entry in its parent. Below a
// sized level that is the scheme's NodeAux of n. At a sized level it is old,
// the entry's payload before the change, with lift's superimposed: a
// superset of the words under n as long as old was one for n's subtree
// before the change. With no old payload (a new root) or no lift (a
// subtree orphan reinserted) it is all ones, the superset that needs no
// words.
func (t *Tree) parentAux(n *Node, old []byte, lift Lift) ([]byte, error) {
	if !t.sized(n.level + 1) {
		return t.nodeAux(n)
	}
	length := t.AuxLen(n.level + 1)
	if length == 0 {
		return nil, nil
	}
	aux := make([]byte, length)
	if old == nil || lift == nil {
		for i := range aux {
			aux[i] = 0xff
		}
		return aux, nil
	}
	copy(aux, old)
	for i, b := range lift(length) {
		aux[i] |= b
	}
	return aux, nil
}

// growRoot replaces the root with a new node one level higher whose two
// entries are the old root and its split sibling (Figure 5 lines 5-12). A
// root it cannot write is freed.
func (t *Tree) growRoot(old, sibling *Node) error {
	root := t.allocNode(old.level + 1)
	oldAux, err := t.parentAux(old, nil, nil)
	if err != nil {
		t.freeNode(root)
		return err
	}
	sibAux, err := t.parentAux(sibling, nil, nil)
	if err != nil {
		t.freeNode(root)
		return err
	}
	root.entries = []entry{
		{ptr: uint64(old.id), rect: old.mbr(), aux: oldAux},
		{ptr: uint64(sibling.id), rect: sibling.mbr(), aux: sibAux},
	}
	if err := t.storeNode(root); err != nil {
		t.freeNode(root)
		return err
	}
	t.root = root.id
	t.height = root.level + 1
	return nil
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
