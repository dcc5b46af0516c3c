// Package rtree implements a disk-resident R-Tree (Guttman [Gut84]) with the
// Hjaltason–Samet incremental nearest-neighbor search [HS99] — the spatial
// substrate of the paper.
//
// The tree is generalized in one dimension beyond Guttman: every entry can
// carry an opaque auxiliary payload ("aux") whose length is fixed per tree
// level. A plain R-Tree uses zero-length payloads. The IR²-Tree and
// MIR²-Tree (package core) store text signatures in the payload and supply
// an AuxScheme that keeps parent payloads consistent as the tree changes —
// exactly the paper's modification of AdjustTree and CondenseTree ("if a new
// bit is set to 1 in a node N, then it must be also set to 1 for N's
// ancestors").
//
// Nodes live on a storage.Device. Node capacity is derived from the block
// size with payloads *excluded*, following the paper: "in order to have the
// same number of children as in the corresponding R-tree, we allocate
// additional disk block(s) to an IR²-Tree node when needed". A node with
// payloads therefore spans one or more consecutive blocks; loading it costs
// one random access plus sequential accesses for the continuation blocks.
// The one exception is a tree whose leaves keep no payload (LeafKeeper): a
// leaf entry is then a row ID and a point, so a leaf holds more entries
// than an interior node (Capacity).
package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/nodecache"
	"spatialkeyword/internal/storage"
)

// nodeHeaderSize is the serialized size of a node header: a uint32 word
// holding the level in its low 16 bits and the node's run length in blocks
// in its high 16 bits, then the entry count (uint32). A run length of 0,
// what every header written before runs were recorded holds, reads as
// capacity (blocksForLevel).
const nodeHeaderSize = 8

// runShift places a node's run length in its header's first word.
const runShift = 16

// NodeReader is the restricted tree view handed to AuxScheme.NodeAux. Its
// methods take no locks: NodeAux runs while the tree already holds its own
// lock, so implementations must use this reader rather than the public Tree
// methods (which would self-deadlock).
type NodeReader interface {
	// SubtreeObjectRefs returns every object reference under n, reading the
	// whole subtree.
	SubtreeObjectRefs(n *Node) ([]uint64, error)
	// AuxLen is Tree.AuxLen: the payload length of entries at level.
	AuxLen(level int) int
}

// AuxScheme defines how auxiliary entry payloads are sized and maintained.
// Implementations must be safe for concurrent readers.
type AuxScheme interface {
	// EntryAuxLen returns the payload length in bytes for entries stored in
	// a node at the given level (level 0 = leaf, whose entries are objects).
	EntryAuxLen(level int) int

	// NodeAux computes the payload that summarizes node n in its parent's
	// entry (an entry at level n.Level()+1). The IR²-Tree superimposes n's
	// entry payloads; the MIR²-Tree re-derives the payload from all objects
	// in n's subtree, which is what makes its maintenance expensive.
	NodeAux(r NodeReader, n *Node) ([]byte, error)
}

// A Coverer computes node n's payload at any length from the objects under
// n: the signature of every word of its subtree. A level the pack sized
// (see BulkLoad) cannot derive its payloads from the entries below, so
// BulkLoad asks its LevelSizer for them, and RebuildAux and CheckInvariants
// ask the scheme, which must then be a Coverer.
type Coverer interface {
	CoverAux(r NodeReader, n *Node, length int) ([]byte, error)
}

// A LevelSizer chooses the payload length of each interior level while
// BulkLoad packs, from the data under it, and covers the nodes of the
// levels whose length it changed (see BulkLoad).
type LevelSizer interface {
	Coverer
	// SizeLevel returns the payload length of the entries at level (≥ 1),
	// one per node of nodes, the level-1 nodes just packed. BulkLoad calls
	// it once per level, bottom-up, before the level's payloads are built.
	SizeLevel(level int, nodes []*Node) (int, error)
}

// Lift returns an inserted object's payload at the given length: the
// payload a sized level superimposes on the entries above the object (see
// Tree.Insert).
type Lift func(length int) []byte

// An ObjectLifter is an AuxScheme that can lift an object entry the tree
// already holds: an orphan CondenseTree reinserts into a leaf (see
// reinsert). The lift must return a payload at every length it is asked
// for, all ones when it cannot find the object's words.
type ObjectLifter interface {
	LiftObject(ref uint64) Lift
}

// A LeafKeeper is an AuxScheme that holds every object entry's payload
// itself, keyed by the entry's reference, a row ID: a tree built on it
// stores none in its leaves. A leaf entry is a row ID and a point
// (pointEntrySize), every object entry's rectangle must be a point, and
// whoever reads the leaf looks each payload up by row ID (the decoded
// Node's entries and a PackedNode's signature columns alike). The leaf
// level's AuxLen is still the payload length; only the leaves' images drop
// it. A state written in any other leaf layout does not open on a keeper
// (ErrLeafLayout).
type LeafKeeper interface {
	// LeafAux returns the payload of the object entry ref, EntryAuxLen(0)
	// bytes aliasing the keeper's memory, which the tree never writes
	// through; false when the keeper holds no object at ref.
	LeafAux(ref uint64) ([]byte, bool)
}

// plainScheme is the zero-payload scheme of an ordinary R-Tree.
type plainScheme struct{}

func (plainScheme) EntryAuxLen(int) int                       { return 0 }
func (plainScheme) NodeAux(NodeReader, *Node) ([]byte, error) { return nil, nil }

// nodeReader implements NodeReader without locking. It is only handed out
// while the tree's lock is already held by the calling operation.
type nodeReader struct{ t *Tree }

func (r nodeReader) SubtreeObjectRefs(n *Node) ([]uint64, error) {
	return r.t.subtreeObjectRefs(n)
}

func (r nodeReader) AuxLen(level int) int { return r.t.AuxLen(level) }

// fillRatio is the minimum node fill m/M, a standard choice for Guttman
// trees.
const fillRatio = 0.4

// Config parameterizes a Tree.
type Config struct {
	// MaxEntries is the node capacity M of every level. Zero derives each
	// level's from the device block size with zero-length payloads, per the
	// paper (see Capacity).
	MaxEntries int
	// Scheme maintains entry payloads. Nil means a plain R-Tree.
	Scheme AuxScheme
	// CacheNodes bounds the decoded-node cache the read path serves packed
	// node images from. Zero means nodecache.DefaultCapacity; a negative
	// value disables the cache (every visit then decodes its node afresh).
	CacheNodes int
}

// entry is one slot of a node: a pointer (object reference in leaves, child
// node block in interior nodes), its MBR, and the payload.
type entry struct {
	ptr  uint64
	rect geo.Rect
	aux  []byte
}

// Node is an in-memory image of an on-disk node. Nodes are value snapshots:
// mutating the tree invalidates previously loaded nodes.
type Node struct {
	id      storage.BlockID
	level   int
	run     int // blocks of the node's run, from id on
	entries []entry
}

// ID returns the node's first block ID.
func (n *Node) ID() storage.BlockID { return n.id }

// Level returns the node's level; 0 is the leaf level.
func (n *Node) Level() int { return n.level }

// Run returns the number of blocks of the node's run, from ID on.
func (n *Node) Run() int { return n.run }

// NumEntries returns the number of entries in the node.
func (n *Node) NumEntries() int { return len(n.entries) }

// Entry returns the i-th entry: its pointer (object reference for leaves,
// child block ID for interior nodes), MBR, and payload. The returned slices
// alias the node; callers must not modify them.
func (n *Node) Entry(i int) (ptr uint64, rect geo.Rect, aux []byte) {
	e := n.entries[i]
	return e.ptr, e.rect, e.aux
}

// mbr returns the union of the node's entry rectangles.
func (n *Node) mbr() geo.Rect {
	var u geo.Rect
	for i := range n.entries {
		u = u.Union(n.entries[i].rect)
	}
	return u
}

// Tree is a disk-resident R-Tree. Concurrent readers are safe; writers
// (Insert, Delete, RebuildAux) take exclusive locks. Iterators obtained from
// Seek must not be advanced concurrently with writers.
type Tree struct {
	dev storage.Device
	// maxE and minE are the interior levels' capacity and minimum fill,
	// leafMaxE and leafMinE the leaves' (see Capacity); fixedE is
	// Config.MaxEntries, which sets all four when it is not zero.
	maxE, minE         int
	leafMaxE, leafMinE int
	fixedE             int
	scheme             AuxScheme

	mu     sync.RWMutex
	root   storage.BlockID
	height int // number of levels; 0 = empty tree
	size   int // number of object entries
	nodes  int // number of nodes
	// lens are the payload lengths a sized pack chose, by level (see
	// BulkLoad); a level past the end has the last one's. Nil means the
	// scheme's EntryAuxLen at every level. Set only while the tree is
	// empty — by BulkLoad, Open, or a delete that empties it — so the read
	// path takes them without a lock.
	lens []int
	// keeper is the scheme when it is a LeafKeeper: the leaves then store
	// no payload, and each leaf entry is a row ID and a point.
	keeper LeafKeeper

	cache       *nodecache.Cache[*PackedNode]
	scratchPool sync.Pool // *scratchBuf: raw block images for every node read
	iterPool    sync.Pool // *iterScratch: priority queues, masks, scores, rect corners
}

// New creates an empty tree on dev. It returns an error for invalid
// configurations (capacity below 2, or a block size too small to hold even
// two payload-free entries).
func New(dev storage.Device, cfg Config) (*Tree, error) {
	scheme := cfg.Scheme
	if scheme == nil {
		scheme = plainScheme{}
	}
	t := &Tree{dev: dev, fixedE: cfg.MaxEntries, scheme: scheme}
	t.maxE, t.minE = t.fill(baseEntrySize)
	if t.maxE < 2 {
		return nil, fmt.Errorf("rtree: capacity %d too small (block size %d)", t.maxE, dev.BlockSize())
	}
	t.keeper, _ = scheme.(LeafKeeper)
	leafSize := baseEntrySize
	if t.keeper != nil {
		leafSize = pointEntrySize
	}
	t.leafMaxE, t.leafMinE = t.fill(leafSize)
	if cfg.CacheNodes >= 0 {
		t.cache = nodecache.New[*PackedNode](cfg.CacheNodes)
	}
	t.scratchPool.New = func() interface{} { return new(scratchBuf) }
	t.iterPool.New = func() interface{} {
		return &iterScratch{
			mask:   make([]uint64, t.MaskWords()),
			scores: make([]float64, max(t.maxE, t.leafMaxE)),
			lo:     make(geo.Point, geo.Dims),
			hi:     make(geo.Point, geo.Dims),
		}
	}
	return t, nil
}

// baseEntrySize is the serialized entry size excluding the payload:
// an 8-byte pointer plus two corner points of geo.Dims float64s each.
// pointEntrySize is a point leaf's entry: the pointer and one point.
const (
	baseEntrySize  = 8 + geo.Dims*16
	pointEntrySize = 8 + geo.Dims*8
)

// fill returns the capacity and the minimum fill of a level whose entries
// take size bytes but for their payloads: Config.MaxEntries when it is set,
// else as many as one block holds beside the header.
func (t *Tree) fill(size int) (capacity, minFill int) {
	capacity = t.fixedE
	if capacity == 0 {
		capacity = (t.dev.BlockSize() - nodeHeaderSize) / size
	}
	return capacity, max(int(fillRatio*float64(capacity)), 1)
}

// entrySize is the serialized entry size at the given level.
func (t *Tree) entrySize(level int) int {
	if t.pointLeaf(level) {
		return pointEntrySize
	}
	return baseEntrySize + t.AuxLen(level)
}

// Capacity returns the most entries a node at the given level holds: M at
// every level but a point leaf's, whose smaller entries fill (4096 − 8) / 24
// = 170 to a 4 KB block where the 40-byte entries of every other node fill
// 102 (Config.MaxEntries, when set, at every level).
func (t *Tree) Capacity(level int) int {
	if level == 0 {
		return t.leafMaxE
	}
	return t.maxE
}

// MinFill returns the fewest entries a node at the given level other than
// the root holds: fillRatio of its Capacity.
func (t *Tree) MinFill(level int) int {
	if level == 0 {
		return t.leafMinE
	}
	return t.minE
}

// pointLeaf reports whether the nodes at the given level are a keeper
// tree's leaves, whose entries are a row ID and a point and whose images
// hold no payload.
func (t *Tree) pointLeaf(level int) bool { return level == 0 && t.keeper != nil }

// storedAuxLen is the payload length the images of the nodes at the given
// level hold: AuxLen, except in point leaves, which hold none.
func (t *Tree) storedAuxLen(level int) int {
	if t.pointLeaf(level) {
		return 0
	}
	return t.AuxLen(level)
}

// checkObject rejects an object entry's rectangle the leaves cannot hold:
// one of another dimension, or in point leaves one that is not a point.
func (t *Tree) checkObject(rect geo.Rect) error {
	if rect.Dim() != geo.Dims {
		return fmt.Errorf("rect dimension %d, want %d", rect.Dim(), geo.Dims)
	}
	if t.keeper != nil && !rect.Lo.Equal(rect.Hi) {
		return fmt.Errorf("rect %v is not a point, and the leaves hold points", rect)
	}
	return nil
}

// keptAux returns the payload of object entry ref: a copy of aux when the
// tree has no keeper, else the keeper's, which must hold ref.
func (t *Tree) keptAux(ref uint64, aux []byte) ([]byte, error) {
	if t.keeper == nil {
		return cloneBytes(aux), nil
	}
	kept, ok := t.keeper.LeafAux(ref)
	if !ok {
		return nil, fmt.Errorf("rtree: no payload kept for object %d", ref)
	}
	return kept, nil
}

// AuxLen returns the payload length in bytes of the entries stored in a node
// at the given level: the length a sized pack recorded for it, else the
// scheme's EntryAuxLen.
func (t *Tree) AuxLen(level int) int {
	if t.lens == nil {
		return t.scheme.EntryAuxLen(level)
	}
	return t.lens[min(level, len(t.lens)-1)]
}

// AuxLens returns AuxLen of every level of the tree, the leaves' first.
func (t *Tree) AuxLens() []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	lens := make([]int, t.height)
	for lvl := range lens {
		lens[lvl] = t.AuxLen(lvl)
	}
	return lens
}

// sized reports whether level's payloads are not derived from the nodes
// below through the scheme's NodeAux but kept as supersets of the words
// under them: a level the pack gave a length of its own. A 0-length sized
// level holds no payload at all.
func (t *Tree) sized(level int) bool {
	return t.lens != nil && level >= 1 && t.AuxLen(level) != t.AuxLen(level-1)
}

// blocksForLevel returns the capacity run of a node at the given level: the
// blocks Capacity(level) entries plus the header fill, at this level's entry
// size. Every node an insert allocates has it; no node's run is longer.
func (t *Tree) blocksForLevel(level int) int { return t.RunFor(level, t.Capacity(level)) }

// RunFor returns the blocks a node at the given level holding count entries
// fills: its header and entries. BulkLoad gives each node this run, and a
// node's run is never shorter; RunFor(level, Capacity(level)) is the
// capacity run every insert-allocated node has, and no run is longer.
func (t *Tree) RunFor(level, count int) int {
	bs := t.dev.BlockSize()
	return (nodeHeaderSize + count*t.entrySize(level) + bs - 1) / bs
}

// fits reports whether n's entries fit its run.
func (t *Tree) fits(n *Node) bool {
	return t.RunFor(n.level, len(n.entries)) <= n.run
}

// parseHeader validates the node header at the front of b, read from block
// id: the level, the entry count (no more than its level's capacity) and the
// run length (capacity for 0), and that the entries fit the run and the run
// no longer than capacity.
func (t *Tree) parseHeader(id storage.BlockID, b []byte) (level, count, run int, err error) {
	word := binary.LittleEndian.Uint32(b[0:4])
	level = int(word & (1<<runShift - 1))
	run = int(word >> runShift)
	count = int(binary.LittleEndian.Uint32(b[4:8]))
	if level > 64 || count > t.Capacity(level) {
		return 0, 0, 0, fmt.Errorf("rtree: corrupt node %d: level=%d count=%d", id, level, count)
	}
	capRun := t.blocksForLevel(level)
	if run == 0 {
		run = capRun
	}
	if run > capRun || t.RunFor(level, count) > run {
		return 0, 0, 0, fmt.Errorf("rtree: corrupt node %d: %d entries at level %d in a run of %d blocks (capacity %d)",
			id, count, level, run, capRun)
	}
	return level, count, run, nil
}

// MaxEntries returns the node capacity M of the interior levels, and of the
// leaves but for point leaves' (see Capacity).
func (t *Tree) MaxEntries() int { return t.maxE }

// Len returns the number of indexed objects.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Height returns the number of levels (0 for an empty tree, 1 for a
// root-only leaf).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

// NumNodes returns the number of nodes.
func (t *Tree) NumNodes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nodes
}

// Device returns the tree's block device (for I/O metering and sizing).
func (t *Tree) Device() storage.Device { return t.dev }

// Root loads and returns the root node, or nil for an empty tree.
func (t *Tree) Root() (*Node, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == storage.NilBlock {
		return nil, nil
	}
	return t.loadNode(t.root)
}

// LoadNode reads the node starting at block id as a decoded Node — the
// mutation path's and the invariant checker's view. Readers use LoadPacked.
func (t *Tree) LoadNode(id storage.BlockID) (*Node, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.loadNode(id)
}

// loadNode reads a node (readImage's access pattern, into the tree's scratch
// pool) and decodes it into structs that own their memory, but for a point
// leaf's payloads, which are views of the keeper's. A point leaf entry
// naming a row the keeper does not hold is a corrupt node.
func (t *Tree) loadNode(id storage.BlockID) (*Node, error) {
	sb, err := t.readImage(id)
	if err != nil {
		return nil, err
	}
	defer t.putScratch(sb)
	buf := sb.b
	level, count, run, err := t.parseHeader(id, buf)
	if err != nil {
		return nil, err
	}
	n := &Node{id: id, level: level, run: run, entries: make([]entry, count)}
	auxLen := t.storedAuxLen(level)
	points := t.pointLeaf(level)
	off := nodeHeaderSize
	for i := 0; i < count; i++ {
		e := &n.entries[i]
		e.ptr = binary.LittleEndian.Uint64(buf[off:])
		off += 8
		lo := make(geo.Point, geo.Dims)
		hi := make(geo.Point, geo.Dims)
		for d := 0; d < geo.Dims; d++ {
			lo[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		if points {
			copy(hi, lo)
		} else {
			for d := 0; d < geo.Dims; d++ {
				hi[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
				off += 8
			}
		}
		e.rect = geo.Rect{Lo: lo, Hi: hi}
		if auxLen > 0 {
			e.aux = make([]byte, auxLen)
			copy(e.aux, buf[off:off+auxLen])
			off += auxLen
		}
		if points {
			var ok bool
			if e.aux, ok = t.keeper.LeafAux(e.ptr); !ok {
				return nil, fmt.Errorf("rtree: corrupt node %d: entry %d names row %d, which the keeper does not hold", id, i, e.ptr)
			}
		}
	}
	return n, nil
}

// storeNode encodes and writes a node to its block run. Every node writer
// funnels through here, so it is also where the decoded-node cache learns
// that a pinned image is out of date. A capacity run's header records run
// length 0, so an insert-built node's bytes do not depend on whether runs
// are recorded. A point leaf's entries are written with one corner and no
// payload (Insert and BulkLoad admit only points to them).
func (t *Tree) storeNode(n *Node) error {
	if t.cache != nil {
		t.cache.Invalidate(n.id)
	}
	es := t.entrySize(n.level)
	auxLen := t.storedAuxLen(n.level)
	points := t.pointLeaf(n.level)
	buf := make([]byte, nodeHeaderSize+len(n.entries)*es)
	word := uint32(n.level)
	if n.run != t.blocksForLevel(n.level) {
		word |= uint32(n.run) << runShift
	}
	binary.LittleEndian.PutUint32(buf[0:4], word)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(n.entries)))
	off := nodeHeaderSize
	for i := range n.entries {
		e := &n.entries[i]
		binary.LittleEndian.PutUint64(buf[off:], e.ptr)
		off += 8
		for d := 0; d < geo.Dims; d++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.rect.Lo[d]))
			off += 8
		}
		for d := 0; d < geo.Dims && !points; d++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.rect.Hi[d]))
			off += 8
		}
		if auxLen > 0 {
			if len(e.aux) != auxLen {
				return fmt.Errorf("rtree: node %d level %d: entry payload %d bytes, want %d",
					n.id, n.level, len(e.aux), auxLen)
			}
			copy(buf[off:], e.aux)
			off += auxLen
		}
	}
	if err := t.dev.WriteRun(n.id, n.run, buf); err != nil {
		return fmt.Errorf("rtree: store node %d: %w", n.id, err)
	}
	return nil
}

// allocNode creates a new empty node at the given level on a capacity run.
func (t *Tree) allocNode(level int) *Node {
	return t.allocRun(level, t.blocksForLevel(level))
}

// allocRun creates a new empty node at the given level on a run of the
// given length.
func (t *Tree) allocRun(level, run int) *Node {
	id := t.dev.AllocRun(run)
	t.nodes++
	return &Node{id: id, level: level, run: run}
}

// freeNode releases a node's run.
func (t *Tree) freeNode(n *Node) {
	if t.cache != nil {
		t.cache.Invalidate(n.id)
	}
	for i := 0; i < n.run; i++ {
		t.dev.Free(n.id + storage.BlockID(i))
	}
	t.nodes--
}

// nodeAux computes a node's parent payload via the scheme. The caller must
// hold the tree lock (read or write); the scheme gets a lock-free reader.
func (t *Tree) nodeAux(n *Node) ([]byte, error) {
	aux, err := t.scheme.NodeAux(nodeReader{t}, n)
	if err != nil {
		return nil, fmt.Errorf("rtree: payload for node %d: %w", n.id, err)
	}
	return aux, t.checkAuxLen(n, aux)
}

// coverAux computes n's parent payload at a sized level from the words under
// it, through the given Coverer (the pack's sizer, or the scheme).
func (t *Tree) coverAux(c Coverer, n *Node) ([]byte, error) {
	length := t.AuxLen(n.level + 1)
	if length == 0 {
		return nil, nil
	}
	aux, err := c.CoverAux(nodeReader{t}, n, length)
	if err != nil {
		return nil, fmt.Errorf("rtree: payload for node %d: %w", n.id, err)
	}
	return aux, t.checkAuxLen(n, aux)
}

// schemeCoverAux is coverAux through the scheme, which a sized level needs
// to be a Coverer.
func (t *Tree) schemeCoverAux(n *Node) ([]byte, error) {
	c, ok := t.scheme.(Coverer)
	if !ok {
		return nil, fmt.Errorf("rtree: sized levels with a %T scheme, which cannot cover a node", t.scheme)
	}
	return t.coverAux(c, n)
}

// checkAuxLen rejects a payload for n's parent entry of the wrong length.
func (t *Tree) checkAuxLen(n *Node, aux []byte) error {
	want := t.AuxLen(n.level + 1)
	if len(aux) != want {
		return fmt.Errorf("rtree: scheme returned %d payload bytes for level %d entry, want %d",
			len(aux), n.level+1, want)
	}
	return nil
}

// SubtreeObjectRefs returns the object references of every leaf entry in the
// subtree rooted at n, reading (and paying the I/O for) every node below n.
// The MIR²-Tree scheme uses it to recompute ancestor signatures from the
// underlying objects.
func (t *Tree) SubtreeObjectRefs(n *Node) ([]uint64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.subtreeObjectRefs(n)
}

func (t *Tree) subtreeObjectRefs(n *Node) ([]uint64, error) {
	if n.level == 0 {
		refs := make([]uint64, len(n.entries))
		for i := range n.entries {
			refs[i] = n.entries[i].ptr
		}
		return refs, nil
	}
	var refs []uint64
	for i := range n.entries {
		child, err := t.loadNode(storage.BlockID(n.entries[i].ptr))
		if err != nil {
			return nil, err
		}
		sub, err := t.subtreeObjectRefs(child)
		if err != nil {
			return nil, err
		}
		refs = append(refs, sub...)
	}
	return refs, nil
}

// VisitNodes walks the whole tree top-down, calling fn on every node. It
// reads every node (paying I/O); it exists for invariant checks, statistics,
// and bulk payload rebuilds.
func (t *Tree) VisitNodes(fn func(n *Node) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == storage.NilBlock {
		return nil
	}
	return t.visit(t.root, fn)
}

func (t *Tree) visit(id storage.BlockID, fn func(n *Node) error) error {
	n, err := t.loadNode(id)
	if err != nil {
		return err
	}
	if err := fn(n); err != nil {
		return err
	}
	if n.level == 0 {
		return nil
	}
	for i := range n.entries {
		if err := t.visit(storage.BlockID(n.entries[i].ptr), fn); err != nil {
			return err
		}
	}
	return nil
}
