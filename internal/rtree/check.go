package rtree

import (
	"bytes"
	"fmt"

	"spatialkeyword/internal/storage"
)

// CheckInvariants verifies the structural invariants of the tree, reading
// every node. It is intended for tests and returns the first violation:
//
//   - every parent entry's MBR equals the union of its child's entry MBRs;
//   - every parent entry's payload equals the scheme's NodeAux of the child
//     or, at a sized level (see BulkLoad), holds every bit of the scheme's
//     CoverAux of it: the signature of every word under the child (a
//     0-length level holds nothing);
//   - levels decrease by exactly one on each descent (height balance);
//   - every non-root node holds between the minimum fill m and MaxEntries
//     entries, and the root holds at least 2 when it is interior (at least 1
//     when it is a leaf);
//   - every node's entries fit its run, and no run is longer than capacity
//     (see RunFor);
//   - the number of reachable objects equals Len().
func (t *Tree) CheckInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == storage.NilBlock {
		if t.size != 0 || t.height != 0 {
			return fmt.Errorf("rtree: empty root but size=%d height=%d", t.size, t.height)
		}
		return nil
	}
	root, err := t.loadNode(t.root)
	if err != nil {
		return err
	}
	if root.level != t.height-1 {
		return fmt.Errorf("rtree: root level %d but height %d", root.level, t.height)
	}
	if root.level > 0 && len(root.entries) < 2 {
		return fmt.Errorf("rtree: interior root with %d entries", len(root.entries))
	}
	if len(root.entries) < 1 {
		return fmt.Errorf("rtree: empty root node")
	}
	objects, nodes, err := t.checkNode(root, true)
	if err != nil {
		return err
	}
	if objects != t.size {
		return fmt.Errorf("rtree: reachable objects %d != size %d", objects, t.size)
	}
	if nodes != t.nodes {
		return fmt.Errorf("rtree: reachable nodes %d != node count %d", nodes, t.nodes)
	}
	return nil
}

func (t *Tree) checkNode(n *Node, isRoot bool) (objects, nodes int, err error) {
	if !t.fits(n) || n.run > t.blocksForLevel(n.level) {
		return 0, 0, fmt.Errorf("rtree: node %d has %d entries at level %d in a run of %d blocks, want %d..%d",
			n.id, len(n.entries), n.level, n.run, t.RunFor(n.level, len(n.entries)), t.blocksForLevel(n.level))
	}
	if !isRoot {
		if len(n.entries) < t.minE || len(n.entries) > t.maxE {
			return 0, 0, fmt.Errorf("rtree: node %d has %d entries, want %d..%d",
				n.id, len(n.entries), t.minE, t.maxE)
		}
	}
	wantAuxLen := t.AuxLen(n.level)
	for i := range n.entries {
		if len(n.entries[i].aux) != wantAuxLen {
			return 0, 0, fmt.Errorf("rtree: node %d entry %d payload %d bytes, want %d",
				n.id, i, len(n.entries[i].aux), wantAuxLen)
		}
	}
	if n.level == 0 {
		return len(n.entries), 1, nil
	}
	nodes = 1
	for i := range n.entries {
		child, err := t.loadNode(storage.BlockID(n.entries[i].ptr))
		if err != nil {
			return 0, 0, err
		}
		if child.level != n.level-1 {
			return 0, 0, fmt.Errorf("rtree: node %d level %d has child %d at level %d",
				n.id, n.level, child.id, child.level)
		}
		if !n.entries[i].rect.Equal(child.mbr()) {
			return 0, 0, fmt.Errorf("rtree: node %d entry %d MBR %v != child %d union %v",
				n.id, i, n.entries[i].rect, child.id, child.mbr())
		}
		if err := t.checkParentAux(n.entries[i].aux, child); err != nil {
			return 0, 0, fmt.Errorf("rtree: node %d entry %d: %w", n.id, i, err)
		}
		o, c, err := t.checkNode(child, false)
		if err != nil {
			return 0, 0, err
		}
		objects += o
		nodes += c
	}
	return objects, nodes, nil
}

// checkParentAux checks aux, the payload of child's entry in its parent.
func (t *Tree) checkParentAux(aux []byte, child *Node) error {
	if !t.sized(child.level + 1) {
		want, err := t.nodeAux(child)
		if err != nil {
			return err
		}
		if !bytes.Equal(aux, want) {
			return fmt.Errorf("payload stale for child %d", child.id)
		}
		return nil
	}
	cover, err := t.schemeCoverAux(child)
	if err != nil {
		return err
	}
	for i, b := range cover {
		if aux[i]&b != b {
			return fmt.Errorf("sized payload misses a word under child %d", child.id)
		}
	}
	return nil
}

// RebuildAux recomputes every entry payload bottom-up in one pass: leaf
// payloads are left as stored (they were supplied at Insert), and each
// parent entry's payload is recomputed through the scheme (its CoverAux at a
// sized level). Bulk index construction uses it so that an O(subtree) scheme
// like the MIR²-Tree's pays one tree pass instead of one subtree pass per
// insert.
func (t *Tree) RebuildAux() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == storage.NilBlock {
		return nil
	}
	root, err := t.loadNode(t.root)
	if err != nil {
		return err
	}
	_, err = t.rebuildAuxNode(root)
	return err
}

// rebuildAuxNode refreshes the payloads inside n (for interior nodes) and
// returns n's own summarizing payload for its parent.
func (t *Tree) rebuildAuxNode(n *Node) ([]byte, error) {
	if n.level > 0 {
		changed := false
		for i := range n.entries {
			child, err := t.loadNode(storage.BlockID(n.entries[i].ptr))
			if err != nil {
				return nil, err
			}
			aux, err := t.rebuildAuxNode(child)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(n.entries[i].aux, aux) {
				n.entries[i].aux = aux
				changed = true
			}
		}
		if changed {
			if err := t.storeNode(n); err != nil {
				return nil, err
			}
		}
	}
	if t.sized(n.level + 1) {
		return t.schemeCoverAux(n)
	}
	return t.nodeAux(n)
}

// Stats summarizes the physical shape of a tree.
type Stats struct {
	Objects    int
	Nodes      int
	Height     int
	LeafNodes  int
	SizeBytes  int64
	AvgFanout  float64
	MaxEntries int
}

// ComputeStats walks the tree and returns its shape. The walk performs
// device reads; call it outside metered sections.
func (t *Tree) ComputeStats() (Stats, error) {
	s := Stats{
		Objects:    t.Len(),
		Height:     t.Height(),
		MaxEntries: t.MaxEntries(),
		SizeBytes:  t.dev.SizeBytes(),
	}
	var entrySum, nodeCount, leafCount int
	err := t.VisitNodes(func(n *Node) error {
		nodeCount++
		entrySum += len(n.entries)
		if n.level == 0 {
			leafCount++
		}
		return nil
	})
	if err != nil {
		return Stats{}, err
	}
	s.Nodes = nodeCount
	s.LeafNodes = leafCount
	if nodeCount > 0 {
		s.AvgFanout = float64(entrySum) / float64(nodeCount)
	}
	return s, nil
}
