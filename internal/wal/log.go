package wal

import (
	"errors"
	"fmt"

	"spatialkeyword/internal/storage"
)

// logMagic identifies a WAL header block ("SKWL").
const logMagic = 0x4c574b53

// logVersion is the on-device format version.
const logVersion = 1

// ErrNotWAL is returned by Open when the device carries no WAL header.
var ErrNotWAL = errors.New("wal: device has no log header")

// Log is an append-only framed byte log on a block device. The device is
// owned exclusively by the log: data blocks are allocated sequentially
// after the header block, so the whole log region is one contiguous run
// and appends are sequential I/O.
//
// Log performs no locking; it is single-writer. The Appender provides the
// concurrent front end (and is the only writer in the engine).
type Log struct {
	dev     storage.Device
	blocks  []storage.BlockID // data blocks, in logical order
	size    int64             // logical end: bytes of framed records
	tail    []byte            // bytes of the final partial block (len = size % blockSize)
	lastSeq uint64            // sequence number of the last recovered/appended record
}

// Create initializes a new, empty log on dev (which must be fresh: the
// log's header is its first allocation). The header is synced so a crash
// immediately after Create still leaves an openable log.
func Create(dev storage.Device) (*Log, error) {
	head := dev.Alloc()
	if head == storage.NilBlock {
		return nil, fmt.Errorf("wal: create: %w", storage.ErrDeviceFull)
	}
	var hdr [8]byte
	putUint32(hdr[0:4], logMagic)
	putUint32(hdr[4:8], logVersion)
	if err := dev.Write(head, hdr[:]); err != nil {
		return nil, fmt.Errorf("wal: write log header: %w", err)
	}
	l := &Log{dev: dev}
	if err := l.Sync(); err != nil {
		return nil, fmt.Errorf("wal: sync log header: %w", err)
	}
	return l, nil
}

// Open recovers an existing log from dev: it locates the header, scans the
// record stream, and truncates any torn tail (physically zeroing it, so a
// second Open returns byte-identical records and no torn tail). The intact
// records and the torn-tail report, if any, are returned in the Recovery.
func Open(dev storage.Device) (*Log, *Recovery, error) {
	head, err := findHeader(dev)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{dev: dev}
	// The data region is the contiguous run after the header; a read of
	// the first never-allocated block fails with ErrBadBlock, ending it.
	var data []byte
	for id := head + 1; ; id++ {
		blk, err := dev.Read(id)
		if err != nil {
			if errors.Is(err, storage.ErrBadBlock) {
				break
			}
			return nil, nil, fmt.Errorf("wal: read log block %d: %w", id, err)
		}
		l.blocks = append(l.blocks, id)
		data = append(data, blk...)
	}
	recs, end, torn := parseStream(data)
	l.size = end
	if rem := int(end % int64(dev.BlockSize())); rem > 0 {
		l.tail = append([]byte(nil), data[end-int64(rem):end]...)
	}
	if len(recs) > 0 {
		l.lastSeq = recs[len(recs)-1].Seq
	}
	if dirty := dirtyPast(data, end); dirty > 0 {
		if torn == nil {
			// The stream ended cleanly but non-zero bytes follow the
			// terminator — a partially persisted, never-acknowledged
			// append. Report and drop it like any torn tail.
			torn = &TornTailError{Offset: end, DroppedBytes: dirty, Reason: "garbage past clean end"}
		}
		if err := l.truncateTail(data); err != nil {
			return nil, nil, err
		}
	}
	return l, &Recovery{Records: recs, Torn: torn}, nil
}

// findHeader probes the first possible allocations for the log header: the
// in-memory Disk hands out block 1 first, a FileDisk block 2 (block 1 is
// its own metadata).
func findHeader(dev storage.Device) (storage.BlockID, error) {
	for _, id := range []storage.BlockID{1, 2} {
		blk, err := dev.Read(id)
		if err != nil {
			if errors.Is(err, storage.ErrBadBlock) {
				continue // never allocated on this device: keep probing
			}
			return storage.NilBlock, fmt.Errorf("wal: probe header block %d: %w", id, err)
		}
		if len(blk) >= 8 && getUint32(blk[0:4]) == logMagic && getUint32(blk[4:8]) == logVersion {
			return id, nil
		}
	}
	return storage.NilBlock, ErrNotWAL
}

// dirtyPast returns how many bytes past the logical end carry data: the
// distance from end to the last non-zero byte (0 when the tail region is
// clean zeros).
func dirtyPast(data []byte, end int64) int64 {
	for i := len(data) - 1; i >= int(end); i-- {
		if data[i] != 0 {
			return int64(i+1) - end
		}
	}
	return 0
}

// truncateTail zeroes everything past the logical end and syncs, restoring
// the invariant that bytes beyond l.size read as zero.
func (l *Log) truncateTail(data []byte) error {
	bs := int64(l.dev.BlockSize())
	idx := int(l.size / bs)
	if rem := l.size % bs; rem > 0 {
		if err := l.dev.Write(l.blocks[idx], data[int64(idx)*bs:l.size]); err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		idx++
	}
	for ; idx < len(l.blocks); idx++ {
		if err := l.dev.Write(l.blocks[idx], nil); err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	if err := l.Sync(); err != nil {
		return fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	return nil
}

// Append writes framed record bytes (built with AppendRecord) at the
// logical end. The write covers the partial tail block plus any new
// blocks in one contiguous device run. A failed append leaves the logical
// state unchanged; bytes it may have scribbled past the logical end are
// invisible to recovery (truncated as a torn tail at worst).
func (l *Log) Append(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	bs := int64(l.dev.BlockSize())
	newSize := l.size + int64(len(p))
	need := int((newSize + bs - 1) / bs)
	if n := need - len(l.blocks); n > 0 {
		var first storage.BlockID
		if n == 1 {
			first = l.dev.Alloc()
		} else {
			first = l.dev.AllocRun(n)
		}
		if first == storage.NilBlock {
			return fmt.Errorf("wal: append: %w", storage.ErrDeviceFull)
		}
		for i := 0; i < n; i++ {
			l.blocks = append(l.blocks, first+storage.BlockID(i))
		}
	}
	dirty := int(l.size / bs) // index of the first block the write touches
	buf := make([]byte, 0, int64(len(l.tail))+int64(len(p)))
	buf = append(buf, l.tail...)
	buf = append(buf, p...)
	nDirty := need - dirty
	if nDirty > 1 && contiguous(l.blocks[dirty:need]) {
		if err := l.dev.WriteRun(l.blocks[dirty], nDirty, buf); err != nil {
			return fmt.Errorf("wal: append: %w", err)
		}
	} else {
		for i := 0; i < nDirty; i++ {
			lo := int64(i) * bs
			hi := lo + bs
			if hi > int64(len(buf)) {
				hi = int64(len(buf))
			}
			if err := l.dev.Write(l.blocks[dirty+i], buf[lo:hi]); err != nil {
				return fmt.Errorf("wal: append: %w", err)
			}
		}
	}
	l.size = newSize
	if rem := newSize % bs; rem > 0 {
		l.tail = append(l.tail[:0], buf[int64(len(buf))-rem:]...)
	} else {
		l.tail = l.tail[:0]
	}
	return nil
}

// contiguous reports whether the block IDs form one ascending run.
func contiguous(ids []storage.BlockID) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			return false
		}
	}
	return true
}

// metaSyncer is the durability hook a backing device may offer (FileDisk
// does: SyncMeta persists its allocator header and fsyncs the file).
type metaSyncer interface{ SyncMeta() error }

// Sync makes all appended bytes durable by syncing the innermost device
// that supports it. Purely in-memory devices have nothing to sync.
func (l *Log) Sync() error {
	dev := l.dev
	for dev != nil {
		if s, ok := dev.(metaSyncer); ok {
			if err := s.SyncMeta(); err != nil {
				return fmt.Errorf("wal: sync: %w", err)
			}
			return nil
		}
		u, ok := dev.(interface{ Under() storage.Device })
		if !ok {
			return nil
		}
		dev = u.Under()
	}
	return nil
}

// Size returns the logical log size in bytes (framed records only).
func (l *Log) Size() int64 { return l.size }

// LastSeq returns the sequence number of the last record in the log (0 if
// empty). The Appender continues from it.
func (l *Log) LastSeq() uint64 { return l.lastSeq }

// noteAppended records that frames up to seq were appended; the Appender
// calls it so a rotated-in Log keeps LastSeq meaningful.
func (l *Log) noteAppended(seq uint64) { l.lastSeq = seq }

// putUint32 and getUint32 are tiny little-endian helpers (kept local so
// log.go reads without a binary import at every call site).
func putUint32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getUint32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
