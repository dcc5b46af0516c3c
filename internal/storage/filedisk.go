package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// FileDisk is a Device backed by a real file, giving the library durable,
// reopenable indexes — the production counterpart of the in-memory Disk
// simulator (which the evaluation uses for deterministic I/O accounting).
// The same random/sequential access accounting applies, so a FileDisk can
// be metered identically.
//
// Layout: block 1 is the device's own metadata (magic, block size, next
// block ID, free-list head); data blocks follow at offset (id-1)*blockSize.
// Freed blocks form an on-disk chain: the first 8 bytes of a free block
// point to the next free block, so the free list survives reopening.
//
// Locking. mu guards the file's contents and the allocator state: a read
// holds it shared for the whole run, so any number of reads sit in the
// pread syscall at once, and every writer (Write, WriteRun, Alloc, Free,
// SyncMeta, Close) holds it exclusively, so a read never observes half of a
// concurrent write of the same block. acct guards what the accounting
// needs — the head position, the counters and the fault hook — and is held
// only while a run's blocks are validated and charged, never across file
// I/O. Under concurrent readers the position one reader leaves is the
// position the next one sees, so the split of a run's blocks between
// RandomReads and SequentialReads depends on the schedule; their sum does
// not, and a single-threaded caller sees exactly Disk's accounting.
//
// Write stamps (Device.WriteSeq) live in memory only: stamps[id] is the
// write sequence that last changed block id in this process, zero for a
// block it has not changed, and both are advanced and written under mu held
// exclusively. A fresh OpenFileDisk therefore starts every stamp clean. The
// slice grows with the blocks written, but never far past the file's size
// at open or twice its own length: a block beyond that, which only a
// corrupt header can hand out, shares one stamp (farSeq) with every block
// past the slice. Sharing is conservative — a shared stamp is never older
// than the block's own — and keeps a bad header from costing 8 bytes for
// every block it claims.
type FileDisk struct {
	f         *os.File
	blockSize int

	mu         sync.RWMutex
	next       BlockID
	freeHead   BlockID
	nAlloc     int
	seq        atomic.Uint64 // advanced under mu held exclusively; read anywhere
	stamps     []uint64      // indexed by BlockID
	farSeq     uint64        // the stamp of every block past stamps
	openBlocks int           // blocks the file held at open

	acct  sync.Mutex
	last  BlockID
	stats Stats
	fault FaultFunc
}

const (
	fileDiskMagic   = 0x49523254 // "IR2T"
	fileMetaBlockID = 1

	// A block must hold the 32-byte header, and no index structure here
	// uses blocks anywhere near 1 MiB: a larger size in a header is
	// corruption, not a request for a 2 GB buffer on the first read.
	minFileBlockSize = 32
	maxFileBlockSize = 1 << 20
)

// CreateFileDisk creates (truncating) a file-backed device at path.
func CreateFileDisk(path string, blockSize int) (*FileDisk, error) {
	if blockSize < minFileBlockSize || blockSize > maxFileBlockSize {
		return nil, fmt.Errorf("storage: file disk block size %d outside [%d, %d]", blockSize, minFileBlockSize, maxFileBlockSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create file disk: %w", err)
	}
	d := &FileDisk{f: f, blockSize: blockSize, next: fileMetaBlockID + 1}
	if err := d.writeMeta(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// OpenFileDisk opens an existing file-backed device.
func OpenFileDisk(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open file disk: %w", err)
	}
	var hdr [32]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: read file disk metadata: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != fileDiskMagic {
		f.Close()
		return nil, fmt.Errorf("storage: %s is not a file disk", path)
	}
	d := &FileDisk{
		f:         f,
		blockSize: int(binary.LittleEndian.Uint32(hdr[4:8])),
		next:      BlockID(binary.LittleEndian.Uint64(hdr[8:16])),
		freeHead:  BlockID(binary.LittleEndian.Uint64(hdr[16:24])),
	}
	nAlloc := binary.LittleEndian.Uint64(hdr[24:32])
	var bad string
	switch {
	case d.blockSize < minFileBlockSize || d.blockSize > maxFileBlockSize:
		bad = fmt.Sprintf("block size %d", d.blockSize)
	case d.next <= fileMetaBlockID || uint64(d.next-1) > math.MaxInt64/uint64(d.blockSize):
		bad = fmt.Sprintf("next block %d", d.next)
	case d.freeHead != NilBlock && !d.valid(d.freeHead):
		bad = fmt.Sprintf("free-list head %d with next block %d", d.freeHead, d.next)
	case nAlloc > uint64(d.next)-fileMetaBlockID-1:
		bad = fmt.Sprintf("%d blocks allocated with next block %d", nAlloc, d.next)
	}
	if bad != "" {
		f.Close()
		return nil, fmt.Errorf("storage: corrupt file disk header in %s: %s", path, bad)
	}
	d.nAlloc = int(nAlloc)
	if fi, err := f.Stat(); err == nil {
		d.openBlocks = int(fi.Size() / int64(d.blockSize))
	}
	return d, nil
}

// valid reports whether id names a data block: past the metadata block and
// below the allocation frontier. Callers hold mu (or are the constructor).
func (d *FileDisk) valid(id BlockID) bool {
	return id > fileMetaBlockID && id < d.next
}

// writeMeta persists the allocator state. Callers must hold mu (or be the
// constructor). Metadata writes are bookkeeping, not workload I/O, so they
// are not counted in the stats.
func (d *FileDisk) writeMeta() error {
	var hdr [32]byte
	binary.LittleEndian.PutUint32(hdr[0:4], fileDiskMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(d.blockSize))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(d.next))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(d.freeHead))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(d.nAlloc))
	if _, err := d.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("storage: write file disk metadata: %w", err)
	}
	return nil
}

// Close flushes metadata and closes the file.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.writeMeta(); err != nil {
		d.f.Close()
		return err
	}
	if err := d.f.Sync(); err != nil {
		d.f.Close()
		return err
	}
	return d.f.Close()
}

// SyncMeta persists the allocator state and fsyncs the file without
// closing it. Durable save paths call this before copying the file into a
// snapshot, so the snapshot's header matches its data blocks.
func (d *FileDisk) SyncMeta() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.writeMeta(); err != nil {
		return err
	}
	return d.f.Sync()
}

// BlockSize implements Device.
func (d *FileDisk) BlockSize() int { return d.blockSize }

func (d *FileDisk) offset(id BlockID) int64 {
	return int64(id-1) * int64(d.blockSize)
}

// Alloc implements Device, recycling the free list first.
func (d *FileDisk) Alloc() BlockID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.allocLocked()
	//skvet:ignore erroprov best-effort eager persist; Close/SyncMeta write the meta block authoritatively
	d.writeMeta() //nolint:errcheck // best-effort; Close persists authoritatively
	return id
}

func (d *FileDisk) allocLocked() BlockID {
	d.nAlloc++
	if d.freeHead != NilBlock {
		id := d.freeHead
		var buf [8]byte
		// A link that cannot be read, or that points outside the data
		// blocks, ends the chain: leaking the rest of the free list beats
		// handing out the metadata block or an unallocated one.
		d.freeHead = NilBlock
		if _, err := d.f.ReadAt(buf[:], d.offset(id)); err == nil {
			if link := BlockID(binary.LittleEndian.Uint64(buf[:])); d.valid(link) {
				d.freeHead = link
			}
		}
		d.stampLocked(id)
		// Zero the recycled block so it reads like a fresh one.
		d.f.WriteAt(make([]byte, d.blockSize), d.offset(id)) //nolint:errcheck
		return id
	}
	id := d.next
	d.next++
	return id
}

// AllocRun implements Device. Runs always come from fresh space (the free
// list is not guaranteed contiguous).
func (d *FileDisk) AllocRun(n int) BlockID {
	if n <= 0 {
		//skvet:ignore nopanic documented allocator invariant: a non-positive run is a caller logic error
		panic(fmt.Sprintf("storage: invalid run length %d", n))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.next
	d.next += BlockID(n)
	d.nAlloc += n
	//skvet:ignore erroprov best-effort eager persist; Close/SyncMeta write the meta block authoritatively
	d.writeMeta() //nolint:errcheck
	return id
}

// Free implements Device, pushing the block onto the on-disk free chain.
// Double-freeing a block corrupts the chain; callers own that invariant
// (as with any manual allocator).
func (d *FileDisk) Free(id BlockID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.valid(id) {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(d.freeHead))
	d.stampLocked(id)
	if _, err := d.f.WriteAt(buf[:], d.offset(id)); err != nil {
		return // leak the block rather than corrupt the chain
	}
	d.freeHead = id
	d.nAlloc--
	//skvet:ignore erroprov best-effort eager persist; Close/SyncMeta write the meta block authoritatively
	d.writeMeta() //nolint:errcheck
}

// Read implements Device.
func (d *FileDisk) Read(id BlockID) ([]byte, error) { return readAlloc(d, id, 1) }

// ReadRun implements Device.
func (d *FileDisk) ReadRun(id BlockID, n int) ([]byte, error) { return readAlloc(d, id, n) }

// ReadRunInto implements Device: the run's blocks are admitted (validated,
// fault-checked, charged) one by one, then one pread moves the whole run
// into dst while mu is held shared — see the type comment for what that
// makes schedule-dependent.
func (d *FileDisk) ReadRunInto(id BlockID, n int, dst []byte) error {
	if err := checkRun(n, d.blockSize, dst); err != nil {
		return err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.admit(OpRead, id, n); err != nil {
		return err
	}
	dst = dst[:n*d.blockSize]
	got, err := d.f.ReadAt(dst, d.offset(id))
	if err != nil && err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: read %d: %v", ErrBadBlock, id, err)
	}
	// Allocated blocks past the current file end (never written) read as
	// zeros, like a sparse file. ReadAt stops short there, and dst is the
	// caller's scratch: whatever it did not deliver must be cleared here.
	clear(dst[got:])
	return nil
}

// ChargeRun implements Device: ReadRunInto's admission without the pread,
// unless a block of the run was stamped after at.
func (d *FileDisk) ChargeRun(id BlockID, n int, at uint64) (bool, error) {
	if n <= 0 {
		return false, errRunLength(n)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i := 0; i < n; i++ {
		if d.stampOf(id+BlockID(i)) > at {
			return false, nil
		}
	}
	if err := d.admit(OpRead, id, n); err != nil {
		return false, err
	}
	return true, nil
}

// WriteSeq implements Device.
func (d *FileDisk) WriteSeq() uint64 { return d.seq.Load() }

// stampSlack is how far past the file's size at open, or twice the stamp
// slice's length, a write may grow the slice (see the type comment).
const stampSlack = 1024

// stampLocked advances the write sequence and stamps block id with it,
// before the bytes change. Callers hold mu exclusively and have checked id
// is a data block.
func (d *FileDisk) stampLocked(id BlockID) {
	seq := d.seq.Add(1)
	if old := len(d.stamps); id >= BlockID(old) {
		if id >= BlockID(max(2*old, d.openBlocks)+stampSlack) {
			d.farSeq = seq
			return
		}
		d.stamps = slices.Grow(d.stamps, int(id)+1-old)[:id+1]
		for i := old; i < len(d.stamps); i++ {
			d.stamps[i] = d.farSeq
		}
	}
	d.stamps[id] = seq
}

// stampOf returns block id's stamp. Callers hold mu.
func (d *FileDisk) stampOf(id BlockID) uint64 {
	if id < BlockID(len(d.stamps)) {
		return d.stamps[id]
	}
	return d.farSeq
}

// Write implements Device.
func (d *FileDisk) Write(id BlockID, data []byte) error {
	if len(data) > d.blockSize {
		return fmt.Errorf("%w: %d > %d", ErrBlockTooLarge, len(data), d.blockSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writeLocked(id, data)
}

func (d *FileDisk) writeLocked(id BlockID, data []byte) error {
	if err := d.admit(OpWrite, id, 1); err != nil {
		return err
	}
	buf := make([]byte, d.blockSize)
	copy(buf, data)
	d.stampLocked(id)
	if _, err := d.f.WriteAt(buf, d.offset(id)); err != nil {
		return fmt.Errorf("%w: write %d: %v", ErrBadBlock, id, err)
	}
	return nil
}

// WriteRun implements Device.
func (d *FileDisk) WriteRun(id BlockID, n int, data []byte) error {
	if len(data) > n*d.blockSize {
		return fmt.Errorf("%w: %d > %d", ErrBlockTooLarge, len(data), n*d.blockSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < n; i++ {
		lo := i * d.blockSize
		var chunk []byte
		if lo < len(data) {
			hi := lo + d.blockSize
			if hi > len(data) {
				hi = len(data)
			}
			chunk = data[lo:hi]
		}
		if err := d.writeLocked(id+BlockID(i), chunk); err != nil {
			return err
		}
	}
	return nil
}

// admit validates, fault-checks and charges blocks id..id+n-1 in order,
// stopping at the first that fails — so a fault on the i-th block of a run
// leaves i blocks charged. Callers hold mu (shared suffices: it only reads
// the allocation frontier).
func (d *FileDisk) admit(op Op, id BlockID, n int) error {
	d.acct.Lock()
	defer d.acct.Unlock()
	for i := 0; i < n; i++ {
		b := id + BlockID(i)
		if !d.valid(b) {
			return fmt.Errorf("%w: %s %d", ErrBadBlock, op, b)
		}
		if d.fault != nil {
			if err := d.fault(op, b); err != nil {
				return err
			}
		}
		d.account(b, op)
	}
	return nil
}

// account mirrors Disk.account. Callers hold acct.
func (d *FileDisk) account(id BlockID, op Op) {
	seq := d.last != 0 && id == d.last+1
	d.last = id
	switch {
	case op == OpRead && seq:
		d.stats.SequentialReads++
	case op == OpRead:
		d.stats.RandomReads++
	case seq:
		d.stats.SequentialWrites++
	default:
		d.stats.RandomWrites++
	}
}

// SetFault installs (or clears) a fault-injection hook.
func (d *FileDisk) SetFault(f FaultFunc) {
	d.acct.Lock()
	defer d.acct.Unlock()
	d.fault = f
}

// Stats implements Device.
func (d *FileDisk) Stats() Stats {
	d.acct.Lock()
	defer d.acct.Unlock()
	return d.stats
}

// ResetStats implements Device.
func (d *FileDisk) ResetStats() {
	d.acct.Lock()
	defer d.acct.Unlock()
	d.stats = Stats{}
	d.last = 0
}

// NumBlocks implements Device: currently allocated blocks.
func (d *FileDisk) NumBlocks() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.nAlloc
}

// SizeBytes implements Device: the data footprint (allocated blocks ×
// block size, metadata excluded).
func (d *FileDisk) SizeBytes() int64 {
	return int64(d.NumBlocks()) * int64(d.blockSize)
}
