package objstore

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"spatialkeyword/internal/storage"
)

// Store persistence: Checkpoint writes the store's file map (its block list
// and synced length) into metadata blocks on the device; Open reads it back
// and rebuilds the in-memory row directory with one sequential scan of the
// data blocks. Together with a file-backed storage.Disk this makes the
// object file durable across process restarts.

const storeStateMagic = 0x4f424a53 // "OBJS"

// Checkpoint persists the store's state and returns the metadata block to
// pass to Open. It syncs buffered rows and seals the open block, so the
// checkpointed file ends on a block boundary and the next row starts a new
// block: a checkpoint never has a block of its data rewritten after it.
func (s *Store) Checkpoint() (storage.BlockID, error) {
	if err := s.Sync(); err != nil {
		return storage.NilBlock, err
	}
	s.seal()
	bs := s.dev.BlockSize()
	need := 4 + 8 + 8 + 8*len(s.blocks)
	nblocks := (need + bs - 1) / bs
	if nblocks == 0 {
		nblocks = 1
	}
	buf := make([]byte, need)
	binary.LittleEndian.PutUint32(buf[0:4], storeStateMagic)
	binary.LittleEndian.PutUint64(buf[4:12], s.synced)
	binary.LittleEndian.PutUint64(buf[12:20], uint64(len(s.blocks)))
	for i, id := range s.blocks {
		binary.LittleEndian.PutUint64(buf[20+8*i:], uint64(id))
	}
	meta := s.dev.AllocRun(nblocks)
	if meta == storage.NilBlock {
		return storage.NilBlock, fmt.Errorf("objstore: checkpoint: %w", storage.ErrDeviceFull)
	}
	if err := s.dev.WriteRun(meta, nblocks, buf); err != nil {
		return storage.NilBlock, fmt.Errorf("objstore: checkpoint: %w", err)
	}
	return meta, nil
}

// Open attaches to a checkpointed store on dev, rebuilding the row
// directory (object count, pointers, block statistics) with one sequential
// scan of the data blocks. The scan's reads are not counted against the
// device's statistics callers meter for queries — reset the stats after
// opening if exact accounting matters.
func Open(dev storage.Device, meta storage.BlockID) (*Store, error) {
	first, err := dev.Read(meta)
	if err != nil {
		return nil, fmt.Errorf("objstore: open: %w", err)
	}
	if binary.LittleEndian.Uint32(first[0:4]) != storeStateMagic {
		return nil, fmt.Errorf("objstore: block %d is not a store state block", meta)
	}
	synced := binary.LittleEndian.Uint64(first[4:12])
	count := binary.LittleEndian.Uint64(first[12:20])
	bs := dev.BlockSize()
	need := 4 + 8 + 8 + 8*int(count)
	nblocks := (need + bs - 1) / bs
	buf := first
	if nblocks > 1 {
		rest, err := dev.ReadRun(meta+1, nblocks-1)
		if err != nil {
			return nil, fmt.Errorf("objstore: open: %w", err)
		}
		buf = append(buf, rest...)
	}
	if need > len(buf) {
		return nil, fmt.Errorf("objstore: corrupt store state block %d", meta)
	}
	s := New(dev)
	s.synced = synced
	s.blocks = make([]storage.BlockID, count)
	for i := range s.blocks {
		s.blocks[i] = storage.BlockID(binary.LittleEndian.Uint64(buf[20+8*i:]))
	}
	if err := s.rebuildDirectory(); err != nil {
		return nil, err
	}
	// A checkpoint is sealed, so synced sits on a block boundary and the next
	// row opens a fresh block. Rounding up means that metadata saying
	// otherwise never gets a block of its data rewritten.
	s.open = (synced + uint64(bs) - 1) / uint64(bs) * uint64(bs)
	return s, nil
}

// rebuildDirectory reads the synced data blocks once, sequentially, and
// re-derives the row pointers and row index, object count, and block-span
// statistics by scanning for row terminators (a zero byte marks
// sealed-block padding; row text never contains NUL — see sanitize). The
// blocks stream through one block of scratch; a row that spans blocks is
// carried over by its start offset.
func (s *Store) rebuildDirectory() error {
	bs := s.dev.BlockSize()
	limit := int(s.synced)
	if stored := len(s.blocks) * bs; limit > stored {
		return fmt.Errorf("%w: synced length %d exceeds %d stored bytes", ErrCorrupt, limit, stored)
	}
	blk := make([]byte, bs)
	off, row := 0, -1 // row: the start of the row being scanned, or -1
	for i, id := range s.blocks {
		if err := s.dev.ReadRunInto(id, 1, blk); err != nil {
			return fmt.Errorf("objstore: rebuild: %w", err)
		}
		base := i * bs
		end := min(base+bs, limit)
		for off < end {
			if row < 0 {
				if blk[off-base] == 0 {
					// Sealed-block padding: the next row starts at the next block.
					off = base + bs
					break
				}
				row = off
			}
			idx := bytes.IndexByte(blk[off-base:end-base], '\n')
			if idx < 0 {
				off = end
				break
			}
			off += idx + 1
			s.addRow(Ptr(row))
			s.blockSum += uint64(s.rowBlockSpan(Ptr(row), off-row))
			row = -1
		}
	}
	if row >= 0 {
		return fmt.Errorf("%w: unterminated row at %d during rebuild", ErrCorrupt, row)
	}
	return nil
}
