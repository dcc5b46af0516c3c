package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

// Tree persistence: a tree's volatile state (root pointer, height, object
// and node counts, and the payload lengths a sized pack chose) can be
// checkpointed into a dedicated state block on its
// device and the tree reopened later from that block — which, combined with
// a file-backed storage.Disk, makes indexes durable across process restarts.
//
// The configuration (capacity, payload scheme) is not stored:
// like most storage engines, the caller must reopen with the same schema it
// created with; a fingerprint in the state block catches mismatches.

const treeStateMagic = 0x52545245 // "RTRE"

// stateFingerprint hashes the structural configuration so Open can reject
// a mismatched schema instead of misreading nodes.
func (t *Tree) stateFingerprint() uint32 {
	h := uint32(2166136261)
	mix := func(v uint32) {
		h ^= v
		h *= 16777619
	}
	mix(geo.Dims) // part of every stored fingerprint, so existing states still open
	mix(uint32(t.maxE))
	mix(uint32(t.minE))
	for lvl := 0; lvl < 8; lvl++ {
		mix(uint32(t.scheme.EntryAuxLen(lvl)))
	}
	// A tree with no recorded lengths keeps the fingerprint it had before
	// packs recorded any, and one whose leaves hold their payloads the one
	// it had before a keeper could hold them. maxE and minE are the
	// interior levels', the capacity of every level before point leaves.
	for _, l := range t.lens {
		mix(uint32(l))
	}
	if t.keeper != nil {
		mix(stateRowLeaves)
	}
	return h
}

// State block layout: magic, fingerprint, root, height, size, nodes (36
// bytes), then the number of recorded payload lengths, with stateRowLeaves
// set when the leaves are a keeper's point leaves of row IDs (see
// LeafKeeper), and each length as a uint32. A state block written before
// sized packs ends with zeros there, which reads as no lengths, the
// scheme's at every level, and leaves that hold their payloads. Older
// keeper trees set bit 31 (leaves without payloads, whose entries named a
// row by its object-file offset) and bit 30 (those entries a point), never
// stateRowLeaves: such a state, and one whose leaves hold their payloads,
// does not open on a keeper (ErrLeafLayout).
const (
	stateRowLeaves = 1 << 29
	stateLensOff   = 36
	maxStateLens   = 64      // a node's level is below 64 (see parsePacked)
	maxStateLen    = 1 << 20 // no sane payload is a megabyte
)

// ErrLeafLayout is Open's error for a tree on a LeafKeeper whose state was
// written with leaves in another layout: the payloads stored in the leaves,
// or leaves that name their objects by something other than the keeper's
// row IDs. No node of it is read; the caller rebuilds the tree.
var ErrLeafLayout = errors.New("rtree: the leaves are not point leaves of row IDs")

// Checkpoint writes the tree's state into the given block (allocating one
// if stateBlock is NilBlock) and returns the block ID to pass to Open
// later. Call it after mutations have quiesced; the state write is one
// block I/O.
func (t *Tree) Checkpoint(stateBlock storage.BlockID) (storage.BlockID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if stateBlock == storage.NilBlock {
		stateBlock = t.dev.Alloc()
	}
	buf := make([]byte, max(44, stateLensOff+4+4*len(t.lens)))
	binary.LittleEndian.PutUint32(buf[0:4], treeStateMagic)
	binary.LittleEndian.PutUint32(buf[4:8], t.stateFingerprint())
	binary.LittleEndian.PutUint64(buf[8:16], uint64(t.root))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(t.height))
	binary.LittleEndian.PutUint64(buf[20:28], uint64(t.size))
	binary.LittleEndian.PutUint64(buf[28:36], uint64(t.nodes))
	word := uint32(len(t.lens))
	if t.keeper != nil {
		word |= stateRowLeaves
	}
	binary.LittleEndian.PutUint32(buf[stateLensOff:], word)
	for i, l := range t.lens {
		binary.LittleEndian.PutUint32(buf[stateLensOff+4+4*i:], uint32(l))
	}
	if err := t.dev.Write(stateBlock, buf); err != nil {
		return storage.NilBlock, fmt.Errorf("rtree: checkpoint: %w", err)
	}
	return stateBlock, nil
}

// Open attaches to a previously checkpointed tree on dev. cfg must match
// the configuration the tree was created with (same dimension, capacity,
// and payload scheme); a fingerprint mismatch is an error. On a LeafKeeper,
// a state whose leaves are in another layout is ErrLeafLayout, returned
// before the fingerprint is compared or the root read.
func Open(dev storage.Device, cfg Config, stateBlock storage.BlockID) (*Tree, error) {
	t, err := New(dev, cfg)
	if err != nil {
		return nil, err
	}
	buf, err := dev.Read(stateBlock)
	if err != nil {
		return nil, fmt.Errorf("rtree: open: %w", err)
	}
	if len(buf) < stateLensOff+4 || binary.LittleEndian.Uint32(buf[0:4]) != treeStateMagic {
		return nil, fmt.Errorf("rtree: block %d is not a tree state block", stateBlock)
	}
	if err := t.readLens(buf, stateBlock); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(buf[4:8]); got != t.stateFingerprint() {
		return nil, fmt.Errorf("rtree: configuration fingerprint mismatch (stored %08x, given %08x)",
			got, t.stateFingerprint())
	}
	t.root = storage.BlockID(binary.LittleEndian.Uint64(buf[8:16]))
	t.height = int(binary.LittleEndian.Uint32(buf[16:20]))
	t.size = int(binary.LittleEndian.Uint64(buf[20:28]))
	t.nodes = int(binary.LittleEndian.Uint64(buf[28:36]))
	if t.height < 0 || (t.root == storage.NilBlock) != (t.height == 0) {
		return nil, fmt.Errorf("rtree: corrupt state block %d (root %d, height %d)",
			stateBlock, t.root, t.height)
	}
	// Recovery check: the checkpointed root must decode and sit at the
	// checkpointed height. This catches a state block pointing into blocks
	// that were recycled or torn after the checkpoint, before a query walks
	// into them.
	if t.root != storage.NilBlock {
		rootNode, err := t.loadNode(t.root)
		if err != nil {
			return nil, fmt.Errorf("rtree: open: root unreadable: %w", err)
		}
		if rootNode.Level() != t.height-1 {
			return nil, fmt.Errorf("rtree: corrupt root block %d: level %d does not match height %d",
				t.root, rootNode.Level(), t.height)
		}
	}
	return t, nil
}

// readLens restores the recorded payload lengths from a state block, after
// checking that its leaves are the scheme's layout: point leaves of row IDs
// exactly when the scheme is a LeafKeeper (else ErrLeafLayout). The leaf
// length must be the scheme's, since the leaves' payloads come from the
// caller.
func (t *Tree) readLens(buf []byte, stateBlock storage.BlockID) error {
	word := binary.LittleEndian.Uint32(buf[stateLensOff:])
	rowLeaves := word&stateRowLeaves != 0
	if t.keeper != nil && !rowLeaves {
		return fmt.Errorf("%w (state block %d)", ErrLeafLayout, stateBlock)
	}
	if rowLeaves && t.keeper == nil {
		return fmt.Errorf("rtree: state block %d: the leaves keep no payload, and the scheme holds none", stateBlock)
	}
	n := int(word &^ stateRowLeaves)
	if n == 0 {
		return nil
	}
	if n > maxStateLens || len(buf) < stateLensOff+4+4*n {
		return fmt.Errorf("rtree: corrupt state block %d: %d payload lengths", stateBlock, n)
	}
	lens := make([]int, n)
	for i := range lens {
		lens[i] = int(binary.LittleEndian.Uint32(buf[stateLensOff+4+4*i:]))
		if lens[i] > maxStateLen || (i == 0 && lens[i] != t.scheme.EntryAuxLen(0)) {
			return fmt.Errorf("rtree: corrupt state block %d: level %d payload length %d", stateBlock, i, lens[i])
		}
	}
	t.lens = lens
	return nil
}
