package core

import (
	"fmt"

	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/storage"
)

// Checkpoint persists the tree's state into a state block on its device
// (allocating one when stateBlock is NilBlock) and returns that block's ID.
// Together with objstore.(*Store).Checkpoint and a file-backed storage.Disk
// this makes a full index — object file plus IR²-Tree — durable:
//
//	treeState, _ := tree.Checkpoint(storage.NilBlock)
//	storeMeta, _ := store.Checkpoint()
//	... persist (treeState, storeMeta) wherever the application keeps roots,
//	    close the devices, restart ...
//	store, _ := objstore.Open(objDev, storeMeta)
//	tree, _ := core.Open(idxDev, store, opts, nil, treeState)
func (x *IR2Tree) Checkpoint(stateBlock storage.BlockID) (storage.BlockID, error) {
	return x.rt.Checkpoint(stateBlock)
}

// Open attaches to a checkpointed IR²-Tree on dev. opts must match the
// options the tree was created with — the same leaf signature
// configuration, variant, and (for a MIR²-Tree) the same corpus statistics,
// since those determine the per-level signature lengths baked into the
// stored nodes. A mismatch is detected by the tree's configuration
// fingerprint. rows is the row table of a served tree (NewServed), which
// keeps its leaf signatures and must hold every row before Open. A served
// tree's state refuses to open without one, and with one only a served
// tree's state opens: any other leaf layout, a tree whose leaves store
// their signatures or name rows by object-file offset, is
// rtree.ErrLeafLayout, and its caller packs the rows into a new tree.
func Open(dev storage.Device, store *objstore.Store, opts Options, rows *Rows, stateBlock storage.BlockID) (*IR2Tree, error) {
	x, err := build(dev, store, opts, rows, stateBlock)
	if err != nil {
		return nil, fmt.Errorf("core: open: %w", err)
	}
	return x, nil
}
