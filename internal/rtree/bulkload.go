package rtree

import (
	"cmp"
	"fmt"
	"slices"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

// BulkEntry is one object entry for BulkLoad. A tree on a LeafKeeper
// ignores Aux and takes the keeper's payload for Ref.
type BulkEntry struct {
	Ref  uint64
	Rect geo.Rect
	Aux  []byte
}

// BulkLoad builds the tree from a full entry set with Sort-Tile-Recursive
// packing (Leutenegger et al.), an extension beyond the paper: the paper
// constructs trees by repeated Insert, which costs O(n log n) node I/O and
// produces overlapping nodes; STR packs near-full nodes with minimal
// overlap in one pass per level.
//
// With a nil sizer the aux maintenance contract is identical to Insert's:
// parent payloads are computed through the AuxScheme bottom-up. A sizer
// chooses each interior level's payload length from the nodes it will
// summarize, once they are packed and before any node of the level is
// stored, and the tree records the lengths (see AuxLen). A level whose
// length equals the one below keeps the scheme's NodeAux; any other level is
// sized, and its payloads are the sizer's CoverAux, built from the words of
// each subtree. Later inserts, splits and deletes keep a sized level's
// payloads supersets of those words without reading them (see Insert).
//
// Each node gets a run of exactly the blocks its header and entries fill
// (RunFor), recorded in its header, not the capacity run an insert
// allocates: the root, each level's last node and a slab's rebalanced
// trailing nodes are part-full, and nothing grows a packed node before an
// insert reaches it, which moves a node that outgrows its run (see
// adjustTree).
//
// BulkLoad requires an empty tree and at least one entry. Every node except
// possibly within the root's chain satisfies the minimum fill (trailing
// chunks are rebalanced).
func (t *Tree) BulkLoad(entries []BulkEntry, sizer LevelSizer) (err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer func() {
		if err != nil && t.root == storage.NilBlock {
			t.lens = nil
		}
	}()
	if t.root != storage.NilBlock {
		return fmt.Errorf("rtree: BulkLoad on non-empty tree")
	}
	if len(entries) == 0 {
		return fmt.Errorf("rtree: BulkLoad with no entries")
	}
	t.lens = nil
	auxLen := t.AuxLen(0)
	level := make([]entry, len(entries))
	for i, be := range entries {
		if err := t.checkObject(be.Rect); err != nil {
			return fmt.Errorf("rtree: bulk entry %d: %w", i, err)
		}
		aux, err := t.keptAux(be.Ref, be.Aux)
		if err != nil {
			return fmt.Errorf("rtree: bulk entry %d: %w", i, err)
		}
		if len(aux) != auxLen {
			return fmt.Errorf("rtree: bulk entry %d payload %d bytes, want %d", i, len(aux), auxLen)
		}
		level[i] = entry{ptr: be.Ref, rect: be.Rect.Clone(), aux: aux}
	}
	if sizer != nil {
		t.lens = []int{auxLen}
	}

	lvl := 0
	for {
		capacity := t.Capacity(lvl)
		if len(level) <= capacity {
			root := t.allocRun(lvl, t.RunFor(lvl, len(level)))
			root.entries = level
			if err := t.storeNode(root); err != nil {
				return err
			}
			t.root = root.id
			t.height = lvl + 1
			t.size = len(entries)
			return nil
		}
		groups := rebalance(strPack(level, 0, capacity), capacity, t.MinFill(lvl))
		nodes := make([]*Node, len(groups))
		for i, g := range groups {
			n := t.allocRun(lvl, t.RunFor(lvl, len(g)))
			n.entries = g
			if err := t.storeNode(n); err != nil {
				return err
			}
			nodes[i] = n
		}
		if sizer != nil {
			length, err := sizer.SizeLevel(lvl+1, nodes)
			if err != nil {
				return err
			}
			t.lens = append(t.lens, length)
		}
		next := make([]entry, len(nodes))
		for i, n := range nodes {
			var aux []byte
			var err error
			if t.sized(lvl + 1) {
				aux, err = t.coverAux(sizer, n)
			} else {
				aux, err = t.nodeAux(n)
			}
			if err != nil {
				return err
			}
			next[i] = entry{ptr: uint64(n.id), rect: n.mbr(), aux: aux}
		}
		level = next
		lvl++
	}
}

// packKey is an entry's sort key in strPack: its center on one dimension
// (doubled) and its position in the input.
type packKey struct {
	center float64
	at     int
}

// strPack tiles entries into groups of at most capacity each, recursing
// across dimensions: sort by the center of the current dimension, cut into
// slabs sized for the remaining dimensions, recurse; the last dimension
// chunks directly.
func strPack(entries []entry, dim, capacity int) [][]entry {
	n := len(entries)
	if n <= capacity {
		return [][]entry{entries}
	}
	// A stable sort on the center, so packed trees do not depend on the
	// sort's algorithm. It orders a 16-byte key per entry, ties in input
	// order, and moves each entry once: a stable sort of the entries
	// themselves moves them O(log n) times each.
	keys := make([]packKey, n)
	for i, e := range entries {
		keys[i] = packKey{center: e.rect.Lo[dim] + e.rect.Hi[dim], at: i}
	}
	slices.SortFunc(keys, func(a, b packKey) int {
		if r := cmp.Compare(a.center, b.center); r != 0 {
			return r
		}
		return cmp.Compare(a.at, b.at)
	})
	sorted := make([]entry, n)
	for i, k := range keys {
		sorted[i] = entries[k.at]
	}
	copy(entries, sorted)
	if dim == geo.Dims-1 {
		return chunk(entries, capacity)
	}
	// Number of nodes still needed and slabs across remaining dims.
	nodes := (n + capacity - 1) / capacity
	remaining := geo.Dims - dim
	slabs := ceilRoot(nodes, remaining)
	slabSize := max((n+slabs-1)/slabs, capacity)
	var groups [][]entry
	for start := 0; start < n; start += slabSize {
		end := start + slabSize
		if end > n {
			end = n
		}
		groups = append(groups, strPack(entries[start:end], dim+1, capacity)...)
	}
	return groups
}

// chunk splits a sorted run into consecutive groups of capacity; the caller
// rebalances undersized trailing groups.
func chunk(entries []entry, capacity int) [][]entry {
	n := len(entries)
	var groups [][]entry
	for start := 0; start < n; start += capacity {
		end := start + capacity
		if end > n {
			end = n
		}
		groups = append(groups, entries[start:end])
	}
	return groups
}

// rebalance repairs groups that fall below the minimum fill minE (the
// trailing chunk of a slab) by merging them with their predecessor and, if
// the merge overflows capacity, re-splitting it into two halves that both
// satisfy the minimum.
func rebalance(groups [][]entry, capacity, minE int) [][]entry {
	out := make([][]entry, 0, len(groups))
	for _, g := range groups {
		if len(g) >= minE || len(out) == 0 {
			out = append(out, g)
			continue
		}
		prev := out[len(out)-1]
		merged := make([]entry, 0, len(prev)+len(g))
		merged = append(merged, prev...)
		merged = append(merged, g...)
		if len(merged) <= capacity {
			out[len(out)-1] = merged
			continue
		}
		half := len(merged) / 2
		out[len(out)-1] = merged[:half]
		out = append(out, merged[half:])
	}
	return out
}

// ceilRoot returns ceil(n^(1/k)) for k >= 1.
func ceilRoot(n, k int) int {
	if k <= 1 || n <= 1 {
		return n
	}
	// Integer search: smallest s with s^k >= n.
	s := 1
	for pow(s, k) < n {
		s++
	}
	return s
}

func pow(s, k int) int {
	out := 1
	for i := 0; i < k; i++ {
		out *= s
		if out < 0 { // overflow guard; n is far smaller in practice
			return 1 << 62
		}
	}
	return out
}
