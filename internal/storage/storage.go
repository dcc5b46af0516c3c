// Package storage simulates the disk that every index structure in this
// library lives on.
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
// estimated.
package storage

import (
	"errors"
	"fmt"
	"sync"
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

// Disk is a simulated block device. It is safe for concurrent use; counter
// updates and data accesses are serialized by an internal mutex (the
// sequential-access detection inherently requires a global notion of "the
// previous access").
type Disk struct {
	blockSize int

	mu     sync.Mutex
	blocks map[BlockID]diskBlock
	next   BlockID
	last   BlockID // block touched by the most recent access; 0 = none
	stats  Stats
	fault  FaultFunc
	freed  []BlockID
	seq    uint64 // write sequence (Device.WriteSeq)
}

// diskBlock is one allocated block: its bytes (nil until written) and the
// write sequence that last changed them.
type diskBlock struct {
	data  []byte
	stamp uint64
}

// NewDisk returns an empty disk with the given block size.
// It panics if blockSize is not positive.
func NewDisk(blockSize int) *Disk {
	if blockSize <= 0 {
		//skvet:ignore nopanic documented constructor invariant
		panic(fmt.Sprintf("storage: invalid block size %d", blockSize))
	}
	return &Disk{
		blockSize: blockSize,
		blocks:    make(map[BlockID]diskBlock),
		next:      1,
	}
}

// BlockSize returns the size of each block in bytes.
func (d *Disk) BlockSize() int { return d.blockSize }

// SetFault installs (or clears, with nil) a fault-injection hook.
func (d *Disk) SetFault(f FaultFunc) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fault = f
}

// Alloc reserves one new block and returns its ID. Freshly allocated blocks
// read as zero bytes. Allocation itself performs no I/O.
func (d *Disk) Alloc() BlockID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocLocked()
}

// AllocRun reserves n consecutive blocks and returns the ID of the first.
// Multi-block index nodes use contiguous runs so reading a whole node costs
// one random access plus n-1 sequential accesses, matching the paper's
// treatment of IR²-Tree nodes that "typically require two disk blocks".
func (d *Disk) AllocRun(n int) BlockID {
	if n <= 0 {
		//skvet:ignore nopanic documented allocator invariant: a non-positive run is a caller logic error
		panic(fmt.Sprintf("storage: invalid run length %d", n))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	first := d.next
	for i := 0; i < n; i++ {
		id := d.next
		d.next++
		d.blocks[id] = diskBlock{} // lazily materialized zero block
	}
	return first
}

// allocLocked hands out a free-listed block if there is one — stamped, since
// a reader may still hold an image of its old contents — and otherwise a
// never-used block.
func (d *Disk) allocLocked() BlockID {
	if n := len(d.freed); n > 0 {
		id := d.freed[n-1]
		d.freed = d.freed[:n-1]
		d.seq++
		d.blocks[id] = diskBlock{stamp: d.seq}
		return id
	}
	id := d.next
	d.next++
	d.blocks[id] = diskBlock{}
	return id
}

// Free releases a block. Freed blocks may be recycled by later Alloc calls
// (but never split a run allocated with AllocRun). Until then it reads, and
// charges, as a block that was never allocated.
func (d *Disk) Free(id BlockID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.blocks[id]; ok {
		d.seq++
		delete(d.blocks, id)
		d.freed = append(d.freed, id)
	}
}

// Read returns a copy of the block's contents, counting one read access.
func (d *Disk) Read(id BlockID) ([]byte, error) { return readAlloc(d, id, 1) }

// ReadRun reads n consecutive blocks starting at id into a single buffer,
// counting one random access and n-1 sequential accesses (assuming the
// previous access did not already position the head just before id).
func (d *Disk) ReadRun(id BlockID, n int) ([]byte, error) { return readAlloc(d, id, n) }

// ReadRunInto implements Device: the disk's one read body. The caller owns
// the buffer, so a warm read path can reuse one scratch buffer across
// queries instead of allocating per node.
func (d *Disk) ReadRunInto(id BlockID, n int, dst []byte) error {
	if err := checkRun(n, d.blockSize, dst); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.admitLocked(OpRead, id, n); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		region := dst[i*d.blockSize : (i+1)*d.blockSize]
		clear(region[copy(region, d.blocks[id+BlockID(i)].data):])
	}
	return nil
}

// ChargeRun implements Device: ReadRunInto's admission without the copy,
// unless a block of the run was stamped after at.
func (d *Disk) ChargeRun(id BlockID, n int, at uint64) (bool, error) {
	if n <= 0 {
		return false, errRunLength(n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < n; i++ {
		if d.blocks[id+BlockID(i)].stamp > at {
			return false, nil
		}
	}
	if err := d.admitLocked(OpRead, id, n); err != nil {
		return false, err
	}
	return true, nil
}

// WriteSeq implements Device.
func (d *Disk) WriteSeq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// admitLocked runs blocks id..id+n-1 through the fault hook, checks each is
// allocated and charges it, in order, stopping at the first that fails — so
// a fault on the i-th block of a run leaves i blocks charged. Callers hold
// mu.
func (d *Disk) admitLocked(op Op, id BlockID, n int) error {
	for i := 0; i < n; i++ {
		b := id + BlockID(i)
		if d.fault != nil {
			if err := d.fault(op, b); err != nil {
				return err
			}
		}
		if _, ok := d.blocks[b]; !ok {
			return fmt.Errorf("%w: %s %d", ErrBadBlock, op, b)
		}
		d.account(b, op)
	}
	return nil
}

// Write stores data into the block, counting one write access. Writing fewer
// than blockSize bytes zero-fills the remainder; writing more is an error.
func (d *Disk) Write(id BlockID, data []byte) error {
	if len(data) > d.blockSize {
		return fmt.Errorf("%w: %d > %d", ErrBlockTooLarge, len(data), d.blockSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.admitLocked(OpWrite, id, 1); err != nil {
		return err
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	d.seq++
	d.blocks[id] = diskBlock{data: buf, stamp: d.seq}
	return nil
}

// WriteRun writes data across n consecutive blocks starting at id, counting
// one random access and n-1 sequential accesses.
func (d *Disk) WriteRun(id BlockID, n int, data []byte) error {
	if len(data) > n*d.blockSize {
		return fmt.Errorf("%w: %d > %d", ErrBlockTooLarge, len(data), n*d.blockSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	for i := 0; i < n; i++ {
		b := id + BlockID(i)
		if err := d.admitLocked(OpWrite, b, 1); err != nil {
			return err
		}
		lo := i * d.blockSize
		hi := lo + d.blockSize
		if lo >= len(data) {
			d.blocks[b] = diskBlock{stamp: d.seq}
			continue
		}
		if hi > len(data) {
			hi = len(data)
		}
		buf := make([]byte, hi-lo)
		copy(buf, data[lo:hi])
		d.blocks[b] = diskBlock{data: buf, stamp: d.seq}
	}
	return nil
}

// account records one access to block id, classifying it as sequential when
// it immediately follows the previously accessed block. Callers must hold mu.
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
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the access counters and forgets the head position, so
// the next access is counted as random.
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
	d.last = 0
}

// NumBlocks returns the number of currently allocated blocks.
func (d *Disk) NumBlocks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.blocks)
}

// SizeBytes returns the total allocated size in bytes (blocks × block size).
// This is the on-disk footprint used for Table 2.
func (d *Disk) SizeBytes() int64 {
	return int64(d.NumBlocks()) * int64(d.blockSize)
}
