// Package storage is the block device that every index structure in this
// library lives on: one Disk, whose blocks sit in a file (a served,
// durable engine) or in memory (the simulator the evaluation meters).
//
// The paper evaluates all structures (R-Tree, IR²-Tree, MIR²-Tree, inverted
// index, and the object file) as disk-resident: "each R-Tree node takes a
// whole disk block; hence access to a node requires one disk I/O", and the
// evaluation reports random and sequential disk block accesses separately
// (Figures 9b/12b). This package provides a block device with exactly that
// accounting:
//
//   - fixed-size blocks (default 4,096 bytes, the paper's block size);
//   - an access to block b is counted as sequential when the immediately
//     preceding access touched block b-1, and random otherwise — matching
//     how a disk arm services a run of consecutive blocks with one seek;
//   - a cost model that converts the two counters into a modeled execution
//     time, keeping the paper's observation that "execution time is
//     primarily proportional to the random access numbers" while making
//     results machine-independent.
//
// Blocks hold real bytes: index nodes and objects are serialized into them,
// so structure sizes (Table 2) fall out of the allocator rather than being
// estimated. The file and the memory backing run the same allocator, header
// and accounting code, so both charge a workload identically.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBlockSize is the disk block size used throughout the paper's
// evaluation (Section 6: "the disk block size is 4,096").
const DefaultBlockSize = 4096

// BlockID identifies a block on a Disk. Valid IDs start at 1; 0 is the nil
// block, so the zero value of on-disk pointers is unambiguous.
type BlockID uint64

// NilBlock is the zero BlockID, used as a null pointer on disk.
const NilBlock BlockID = 0

// ErrBadBlock is returned when reading or writing a block that was never
// allocated (or was freed).
var ErrBadBlock = errors.New("storage: no such block")

// ErrBlockTooLarge is returned when writing more bytes than fit in a block.
var ErrBlockTooLarge = errors.New("storage: data exceeds block size")

// Op distinguishes the two I/O directions for fault injection and tracing.
type Op int

const (
	// OpRead is a block read.
	OpRead Op = iota
	// OpWrite is a block write.
	OpWrite
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Stats holds the I/O counters of a Disk. Counters are cumulative since the
// last ResetStats.
type Stats struct {
	RandomReads      uint64 // reads that required a seek
	SequentialReads  uint64 // reads of the block following the previous access
	RandomWrites     uint64 // writes that required a seek
	SequentialWrites uint64 // writes of the block following the previous access
}

// Random returns the total number of random (seeking) accesses.
func (s Stats) Random() uint64 { return s.RandomReads + s.RandomWrites }

// Sequential returns the total number of sequential accesses.
func (s Stats) Sequential() uint64 { return s.SequentialReads + s.SequentialWrites }

// Sub returns the counter deltas s - t. It is how callers meter a single
// operation: snapshot before, snapshot after, subtract.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		RandomReads:      s.RandomReads - t.RandomReads,
		SequentialReads:  s.SequentialReads - t.SequentialReads,
		RandomWrites:     s.RandomWrites - t.RandomWrites,
		SequentialWrites: s.SequentialWrites - t.SequentialWrites,
	}
}

// Add returns the counter sums s + t.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		RandomReads:      s.RandomReads + t.RandomReads,
		SequentialReads:  s.SequentialReads + t.SequentialReads,
		RandomWrites:     s.RandomWrites + t.RandomWrites,
		SequentialWrites: s.SequentialWrites + t.SequentialWrites,
	}
}

// String formats the stats compactly, e.g. "rnd=12 seq=3 (r=10/5 w=2/-2)".
func (s Stats) String() string {
	return fmt.Sprintf("random=%d sequential=%d (reads %d+%d, writes %d+%d)",
		s.Random(), s.Sequential(),
		s.RandomReads, s.SequentialReads, s.RandomWrites, s.SequentialWrites)
}

// CostModel converts block-access counters into a modeled elapsed time.
// The default approximates the paper's 10,000 RPM drive: a random access
// pays a full seek + rotational delay, a sequential access only the
// transfer of one more block.
type CostModel struct {
	RandomAccess     time.Duration // seek + rotate + transfer for one block
	SequentialAccess time.Duration // transfer for one consecutive block
}

// DefaultCostModel approximates a 2008-era 10k RPM disk: ~8 ms per random
// access, ~60 µs to stream one additional 4 KB block (~70 MB/s media rate).
func DefaultCostModel() CostModel {
	return CostModel{
		RandomAccess:     8 * time.Millisecond,
		SequentialAccess: 60 * time.Microsecond,
	}
}

// Time returns the modeled elapsed time for the given access counts.
func (c CostModel) Time(s Stats) time.Duration {
	return time.Duration(s.Random())*c.RandomAccess +
		time.Duration(s.Sequential())*c.SequentialAccess
}

// FaultFunc is a fault-injection hook. If it returns a non-nil error for an
// access, the access fails with that error and no data is transferred.
type FaultFunc func(op Op, id BlockID) error

// Disk is the block device. Its bytes live on a backing: a file
// (CreateFileDisk, OpenFileDisk), which makes indexes durable, or memory
// (NewDisk), which the evaluation meters. The header, the allocator,
// admission, the accounting, the fault hook and the write stamps are the
// same code on both.
//
// Layout: block 1 is the header (magic, block size, next block ID,
// free-list head, allocated count), and block id lies at offset
// (id-1)*blockSize. The first 8 bytes of a free block link to the next, so
// the free list survives reopening. A block this process freed reads,
// writes and charges as unallocated until Alloc recycles it; a reopened
// file starts that set empty, as it does its stamps.
//
// Locking. mu guards the backing's contents and the allocator state: a
// read holds it shared for the whole run, so reads overlap, and every
// writer (Write, WriteRun, Alloc, Free, SyncMeta, Close) holds it
// exclusively, so a read never sees half a write. acct guards the head
// position, the counters and the fault hook, and is held only while a
// run's blocks are admitted, never across backing I/O. Under concurrent
// readers the split of a run's blocks between RandomReads and
// SequentialReads depends on the schedule; their sum does not.
//
// Write stamps (Device.WriteSeq) live in memory only: stamps[id] is the
// write sequence that last changed block id in this process, zero for a
// block it has not changed, written under mu held exclusively. The slice
// never grows far past the file's size at open or twice its own length: a
// block beyond that, which only a corrupt header can hand out, shares the
// conservative stamp farSeq with every block past the slice.
type Disk struct {
	back      backing
	blockSize int

	mu         sync.RWMutex
	next       BlockID
	freeHead   BlockID
	nAlloc     int
	freed      map[BlockID]struct{} // freed by this process, not recycled since
	scratch    []byte               // one block image for writes, zero past dirty
	dirty      int
	meta       [32]byte      // the header, or a free-chain link being read
	metaDirty  bool          // the allocator changed since the header was last written
	seq        atomic.Uint64 // advanced under mu held exclusively; read anywhere
	stamps     []uint64      // indexed by BlockID
	farSeq     uint64        // the stamp of every block past stamps
	openBlocks int           // blocks the file held at open

	acct  sync.Mutex
	last  BlockID // block touched by the most recent access; 0 = none
	stats Stats
	fault FaultFunc
}

const (
	diskMagic = 0x49523254 // "IR2T"
	metaBlock = BlockID(1)

	// FirstBlock is the first data block of every Disk: the first block a
	// fresh Disk hands out.
	FirstBlock = metaBlock + 1

	// MinBlockSize is the smallest block that holds the 32-byte header.
	// MaxBlockSize bounds the other side: no index structure here uses
	// blocks anywhere near 1 MiB, so a larger size in a header is
	// corruption, not a request for a 2 GB buffer on the first read.
	MinBlockSize = 32
	MaxBlockSize = 1 << 20
)

func newDisk(back backing, blockSize int, next BlockID) *Disk {
	return &Disk{back: back, blockSize: blockSize, next: next, metaDirty: true,
		freed: make(map[BlockID]struct{}), scratch: make([]byte, blockSize)}
}

// checkBlockSize rejects a block size outside [MinBlockSize, MaxBlockSize].
func checkBlockSize(blockSize int) error {
	if blockSize < MinBlockSize || blockSize > MaxBlockSize {
		return fmt.Errorf("storage: block size %d outside [%d, %d]", blockSize, MinBlockSize, MaxBlockSize)
	}
	return nil
}

// NewDisk returns an empty disk in memory with the given block size.
// It panics if blockSize is outside [MinBlockSize, MaxBlockSize].
func NewDisk(blockSize int) *Disk {
	if err := checkBlockSize(blockSize); err != nil {
		//skvet:ignore nopanic documented constructor invariant
		panic(err.Error())
	}
	return newDisk(&memBlocks{size: int64(blockSize), blocks: make(map[int64][]byte)}, blockSize, FirstBlock)
}

// inRange reports whether id names a data block: past the header and below
// the allocation frontier. Callers hold mu (or are the constructor).
func (d *Disk) inRange(id BlockID) bool {
	return id >= FirstBlock && id < d.next
}

// holds reports whether id is a data block that this process has not
// freed since it last handed it out. Callers hold mu.
func (d *Disk) holds(id BlockID) bool {
	if len(d.freed) == 0 {
		return d.inRange(id)
	}
	_, gone := d.freed[id]
	return !gone && d.inRange(id)
}

func (d *Disk) offset(id BlockID) int64 {
	return int64(id-1) * int64(d.blockSize)
}

// writeMeta persists the allocator state, and the header is clean once it
// has. Callers must hold mu exclusively (or be the constructor). Header
// writes are bookkeeping, not workload I/O, so they are not counted in the
// stats.
func (d *Disk) writeMeta() error {
	hdr := d.meta[:]
	binary.LittleEndian.PutUint32(hdr[0:4], diskMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(d.blockSize))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(d.next))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(d.freeHead))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(d.nAlloc))
	if _, err := d.back.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("storage: write disk header: %w", err)
	}
	d.metaDirty = false
	return nil
}

// persistMeta is the allocator's eager header write after every change.
// It is best effort: a failed write leaves the header dirty, and Close and
// SyncMeta write it authoritatively.
func (d *Disk) persistMeta() {
	d.metaDirty = true
	//skvet:ignore erroprov best-effort eager persist; Close/SyncMeta write the meta block authoritatively
	d.writeMeta() //nolint:errcheck
}

// Close does what SyncMeta does, then closes the backing.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return errors.Join(d.syncMetaLocked(), d.back.Close())
}

// SyncMeta writes the header, when the allocator changed since it was last
// written, and syncs the backing without closing it. Durable save paths
// call this before a commit, so the committed blocks are on the disk; a
// write-ahead log calls it per commit, and since the allocator persists
// every change eagerly that writes only the log's blocks in the common case.
func (d *Disk) SyncMeta() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncMetaLocked()
}

func (d *Disk) syncMetaLocked() error {
	if d.metaDirty {
		if err := d.writeMeta(); err != nil {
			return err
		}
	}
	return d.back.Sync()
}

// Seal returns the allocation frontier, the block the next fresh allocation
// takes, and drops the free list, so no block below the frontier is handed
// out again: a durable commit records the frontier, and every block under it
// keeps the bytes the commit saw. A dropped free block counts as allocated,
// as it does on a disk reopened at the frontier (OpenFileDiskAt).
func (d *Disk) Seal() BlockID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.freeHead != NilBlock || d.nAlloc != int(d.next-FirstBlock) {
		d.freeHead = NilBlock
		d.nAlloc = int(d.next - FirstBlock)
		d.persistMeta()
	}
	return d.next
}

// BlockSize returns the size of each block in bytes.
func (d *Disk) BlockSize() int { return d.blockSize }

// SetFault installs (or clears, with nil) a fault-injection hook.
func (d *Disk) SetFault(f FaultFunc) {
	d.acct.Lock()
	defer d.acct.Unlock()
	d.fault = f
}

// Alloc reserves one block and returns its ID: the head of the free list
// if there is one — stamped, since a reader may still hold an image of its
// old contents, and zeroed — and otherwise a never-used block. Allocated
// blocks read as zero bytes; allocation itself is not charged.
func (d *Disk) Alloc() BlockID {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.persistMeta()
	d.nAlloc++
	id := d.freeHead
	if id == NilBlock {
		d.next++
		return d.next - 1
	}
	// A link that cannot be read, or that points outside the data blocks,
	// ends the chain: leaking the rest of the free list beats handing out
	// the header or an unallocated block.
	d.freeHead = NilBlock
	link := d.meta[:8]
	if _, err := d.back.ReadAt(link, d.offset(id)); err == nil {
		if next := BlockID(binary.LittleEndian.Uint64(link)); d.inRange(next) {
			d.freeHead = next
		}
	}
	delete(d.freed, id)
	d.stampLocked(id)
	// Zero it so it reads like a fresh block; Alloc has no error to return.
	d.back.WriteAt(d.image(nil), d.offset(id)) //nolint:errcheck
	return id
}

// AllocRun reserves n consecutive blocks and returns the ID of the first.
// Multi-block index nodes use contiguous runs so reading a whole node costs
// one random access plus n-1 sequential accesses, matching the paper's
// treatment of IR²-Tree nodes that "typically require two disk blocks".
// Runs always come from fresh space: the free list is not contiguous.
func (d *Disk) AllocRun(n int) BlockID {
	if n <= 0 {
		//skvet:ignore nopanic documented allocator invariant: a non-positive run is a caller logic error
		panic(fmt.Sprintf("storage: invalid run length %d", n))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.next
	d.next += BlockID(n)
	d.nAlloc += n
	d.persistMeta()
	return id
}

// Free releases a block onto the free chain; later Alloc calls recycle it
// (a run from AllocRun is never split). Until then it reads, writes and
// charges as a block that was never allocated. Freeing a block the device
// does not hold, freed ones included, does nothing.
func (d *Disk) Free(id BlockID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.holds(id) {
		return
	}
	// The link is written as a whole block, so a memory backing keeps only
	// the link of a freed block, not its old bytes.
	var link [8]byte
	binary.LittleEndian.PutUint64(link[:], uint64(d.freeHead))
	d.stampLocked(id)
	if _, err := d.back.WriteAt(d.image(link[:]), d.offset(id)); err != nil {
		return // leak the block rather than corrupt the chain
	}
	d.freeHead = id
	d.nAlloc--
	d.freed[id] = struct{}{}
	d.persistMeta()
}

// Read returns a copy of the block's contents, counting one read access.
func (d *Disk) Read(id BlockID) ([]byte, error) { return readAlloc(d, id, 1) }

// ReadRun reads n consecutive blocks starting at id into a single buffer,
// counting one random access and n-1 sequential accesses (assuming the
// previous access did not already position the head just before id).
func (d *Disk) ReadRun(id BlockID, n int) ([]byte, error) { return readAlloc(d, id, n) }

// ReadRunInto implements Device: the run's blocks are admitted (validated,
// fault-checked, charged) one by one, then one backing read moves the whole
// run into the caller's dst while mu is held shared.
func (d *Disk) ReadRunInto(id BlockID, n int, dst []byte) error {
	if err := checkRun(n, d.blockSize, dst); err != nil {
		return err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.admit(OpRead, id, n); err != nil {
		return err
	}
	dst = dst[:n*d.blockSize]
	got, err := d.back.ReadAt(dst, d.offset(id))
	if err != nil && err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: read %d: %v", ErrBadBlock, id, err)
	}
	// Allocated blocks past the file's end (never written) read as zeros,
	// like a sparse file. ReadAt stops short there, and dst is the caller's
	// scratch: whatever it did not deliver must be cleared here.
	clear(dst[got:])
	return nil
}

// ChargeRun implements Device: ReadRunInto's admission without the backing
// read, unless a block of the run was stamped after at.
func (d *Disk) ChargeRun(id BlockID, n int, at uint64) (bool, error) {
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
func (d *Disk) WriteSeq() uint64 { return d.seq.Load() }

// stampSlack is how far past the file's size at open, or twice the stamp
// slice's length, a write may grow the slice (see the type comment).
const stampSlack = 1024

// stampLocked advances the write sequence and stamps block id with it,
// before the bytes change. Callers hold mu exclusively and have checked id
// is a data block.
func (d *Disk) stampLocked(id BlockID) {
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
func (d *Disk) stampOf(id BlockID) uint64 {
	if id < BlockID(len(d.stamps)) {
		return d.stamps[id]
	}
	return d.farSeq
}

// Write stores data into the block, counting one write access. Writing fewer
// than blockSize bytes zero-fills the remainder; writing more is an error.
func (d *Disk) Write(id BlockID, data []byte) error {
	if len(data) > d.blockSize {
		return fmt.Errorf("%w: %d > %d", ErrBlockTooLarge, len(data), d.blockSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writeLocked(id, data)
}

func (d *Disk) writeLocked(id BlockID, data []byte) error {
	if err := d.admit(OpWrite, id, 1); err != nil {
		return err
	}
	d.stampLocked(id)
	if _, err := d.back.WriteAt(d.image(data), d.offset(id)); err != nil {
		return fmt.Errorf("%w: write %d: %v", ErrBadBlock, id, err)
	}
	return nil
}

// image returns the scratch block holding data and zeros after it. Only
// what the previous image left past len(data) needs clearing. Callers hold
// mu exclusively.
func (d *Disk) image(data []byte) []byte {
	n := copy(d.scratch, data)
	clear(d.scratch[n:max(n, d.dirty)])
	d.dirty = n
	return d.scratch
}

// WriteRun writes data across n consecutive blocks starting at id, counting
// one random access and n-1 sequential accesses. A failure on the i-th
// block leaves the i blocks before it written.
func (d *Disk) WriteRun(id BlockID, n int, data []byte) error {
	if len(data) > n*d.blockSize {
		return fmt.Errorf("%w: %d > %d", ErrBlockTooLarge, len(data), n*d.blockSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < n; i++ {
		lo := min(i*d.blockSize, len(data))
		hi := min(lo+d.blockSize, len(data))
		if err := d.writeLocked(id+BlockID(i), data[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// admit validates, fault-checks and charges blocks id..id+n-1 in order,
// stopping at the first that fails — so a fault on the i-th block of a run
// leaves i blocks charged, and the hook never sees a block the device does
// not hold. Callers hold mu (shared suffices: it only reads the allocator).
func (d *Disk) admit(op Op, id BlockID, n int) error {
	d.acct.Lock()
	defer d.acct.Unlock()
	for i := 0; i < n; i++ {
		b := id + BlockID(i)
		if !d.holds(b) {
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

// account records one access to block id, classifying it as sequential when
// it immediately follows the previously accessed block. Callers hold acct.
func (d *Disk) account(id BlockID, op Op) {
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

// Stats returns a snapshot of the access counters.
func (d *Disk) Stats() Stats {
	d.acct.Lock()
	defer d.acct.Unlock()
	return d.stats
}

// ResetStats zeroes the access counters and forgets the head position, so
// the next access is counted as random.
func (d *Disk) ResetStats() {
	d.acct.Lock()
	defer d.acct.Unlock()
	d.stats = Stats{}
	d.last = 0
}

// NumBlocks returns the number of currently allocated blocks.
func (d *Disk) NumBlocks() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.nAlloc
}

// SizeBytes returns the allocated size in bytes (blocks × block size, the
// header excluded). This is the on-disk footprint used for Table 2.
func (d *Disk) SizeBytes() int64 {
	return int64(d.NumBlocks()) * int64(d.blockSize)
}
