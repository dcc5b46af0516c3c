package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Fault injection. A FaultDevice wraps any Device with a deterministic,
// seedable FaultPlan so tests can drive every failure mode a real disk has:
// read and write errors (on the Nth access or on specific blocks), silent
// bit-flip corruption, torn multi-block writes, allocation failure when the
// disk fills up, and injected latency. Every injected failure surfaces as a
// typed *FaultError carrying the operation and block it hit, so callers can
// assert error provenance all the way up the stack.

// ErrInjected is the sentinel every *FaultError wraps; errors.Is(err,
// ErrInjected) distinguishes injected faults from organic device errors.
var ErrInjected = errors.New("storage: injected fault")

// ErrDeviceFull is the sentinel for allocation failure: structures that
// guard against NilBlock allocations wrap it, so full-disk conditions
// classify as I/O faults alongside injected ones.
var ErrDeviceFull = errors.New("storage: device full")

// FaultKind names the failure mode of one injected fault.
type FaultKind int

const (
	// KindReadError is a failed block read.
	KindReadError FaultKind = iota
	// KindWriteError is a failed block write.
	KindWriteError
	// KindTornWrite is a multi-block write that persisted only a prefix.
	KindTornWrite
	// KindAllocFail is an access to a block handed out after the simulated
	// disk filled up.
	KindAllocFail
)

// String names the kind for error messages and test tables.
func (k FaultKind) String() string {
	switch k {
	case KindReadError:
		return "read-error"
	case KindWriteError:
		return "write-error"
	case KindTornWrite:
		return "torn-write"
	case KindAllocFail:
		return "alloc-fail"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultError reports one injected device fault with full provenance: what
// kind of fault, which operation tripped it, and which block it hit.
type FaultError struct {
	Kind  FaultKind
	Op    Op
	Block BlockID
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("storage: injected %s on %s of block %d", e.Kind, e.Op, e.Block)
}

// Unwrap makes errors.Is(err, ErrInjected) true for every injected fault.
func (e *FaultError) Unwrap() error { return ErrInjected }

// IsIOFault reports whether err is a device-level failure — an injected
// fault, a checksum mismatch, or an access to a missing block — rather than
// a caller mistake. The sharded engine uses this to decide that a shard's
// storage (not the query) is at fault and degrade instead of erroring.
func IsIOFault(err error) bool {
	if err == nil {
		return false
	}
	var fe *FaultError
	var ce *CorruptBlockError
	return errors.As(err, &fe) || errors.As(err, &ce) ||
		errors.Is(err, ErrBadBlock) || errors.Is(err, ErrDeviceFull)
}

// FaultPlan is a deterministic script of device faults. The zero value
// injects nothing. Access counters (reads and writes counted separately,
// starting at 1) make "fail the Nth access" reproducible regardless of
// wall-clock or goroutine interleaving within a single-threaded test; the
// Seed makes bit-flip positions reproducible across runs.
type FaultPlan struct {
	// Seed drives the pseudo-random choices (bit positions for flips).
	Seed int64

	// FailReadAt and FailWriteAt fail the Nth read / Nth write (1-based).
	FailReadAt, FailWriteAt []uint64

	// FailReadBlocks / FailWriteBlocks fail every access to these blocks.
	FailReadBlocks, FailWriteBlocks []BlockID

	// FailWritesFrom, when non-zero, fails every write from the Nth onward
	// (1-based) — the "process killed mid-save" simulation.
	FailWritesFrom uint64

	// FlipReadAt silently flips one pseudo-random bit in the data returned
	// by the Nth read (1-based). The caller sees no error — exactly what a
	// bit-rotted platter does — so only checksum framing can catch it.
	FlipReadAt []uint64

	// FlipBlocks silently corrupts every read of these blocks.
	FlipBlocks []BlockID

	// TornWriteAt makes the Nth WriteRun (1-based) persist only its first
	// block and then fail with KindTornWrite.
	TornWriteAt []uint64

	// MaxBlocks, when non-zero, simulates a full disk: allocations beyond
	// this many blocks hand out NilBlock, and every subsequent access to
	// NilBlock fails with KindAllocFail.
	MaxBlocks int

	// Latency is added to every read and write.
	Latency time.Duration
}

// FaultDevice wraps a Device and executes a FaultPlan. It is safe for
// concurrent use; the plan's counters are guarded by one mutex.
type FaultDevice struct {
	under Device

	mu        sync.Mutex
	plan      FaultPlan
	rng       *rand.Rand
	reads     uint64 // completed read-access count
	writes    uint64 // completed write-access count
	runs      uint64 // WriteRun call count
	allocated int
	injected  uint64
}

// NewFaultDevice wraps under with the given plan.
func NewFaultDevice(under Device, plan FaultPlan) *FaultDevice {
	return &FaultDevice{
		under: under,
		plan:  plan,
		rng:   rand.New(rand.NewSource(plan.Seed)),
	}
}

// SetPlan replaces the fault plan (counters keep running).
func (d *FaultDevice) SetPlan(plan FaultPlan) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.plan = plan
	d.rng = rand.New(rand.NewSource(plan.Seed))
}

// Injected returns how many faults have fired so far.
func (d *FaultDevice) Injected() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.injected
}

// Under returns the wrapped device (tests reach through to corrupt raw
// blocks or inspect state).
func (d *FaultDevice) Under() Device { return d.under }

func contains[T comparable](xs []T, x T) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// fail records one injected fault and builds its error.
func (d *FaultDevice) fail(kind FaultKind, op Op, id BlockID) error {
	d.injected++
	return &FaultError{Kind: kind, Op: op, Block: id}
}

// checkRead advances the read counter and decides this access's fate:
// error, silent bit flip (flip=true), or clean.
func (d *FaultDevice) checkRead(id BlockID) (flip bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.plan.MaxBlocks > 0 && id == NilBlock {
		return false, d.fail(KindAllocFail, OpRead, id)
	}
	d.reads++
	n := d.reads
	if contains(d.plan.FailReadAt, n) || contains(d.plan.FailReadBlocks, id) {
		return false, d.fail(KindReadError, OpRead, id)
	}
	if contains(d.plan.FlipReadAt, n) || contains(d.plan.FlipBlocks, id) {
		d.injected++
		return true, nil
	}
	return false, nil
}

// checkWrite advances the write counter and decides this access's fate.
func (d *FaultDevice) checkWrite(id BlockID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.plan.MaxBlocks > 0 && id == NilBlock {
		return d.fail(KindAllocFail, OpWrite, id)
	}
	d.writes++
	n := d.writes
	if d.plan.FailWritesFrom != 0 && n >= d.plan.FailWritesFrom {
		return d.fail(KindWriteError, OpWrite, id)
	}
	if contains(d.plan.FailWriteAt, n) || contains(d.plan.FailWriteBlocks, id) {
		return d.fail(KindWriteError, OpWrite, id)
	}
	return nil
}

// flipBit flips one seeded-pseudo-random bit of data in place.
func (d *FaultDevice) flipBit(data []byte) {
	if len(data) == 0 {
		return
	}
	d.mu.Lock()
	bit := d.rng.Intn(len(data) * 8)
	d.mu.Unlock()
	data[bit/8] ^= 1 << (bit % 8)
}

func (d *FaultDevice) sleep() {
	if d.plan.Latency > 0 {
		time.Sleep(d.plan.Latency)
	}
}

// BlockSize implements Device.
func (d *FaultDevice) BlockSize() int { return d.under.BlockSize() }

// Alloc implements Device. Once MaxBlocks allocations have been handed out
// it returns NilBlock — the full-disk condition — and every access to
// NilBlock fails with KindAllocFail.
func (d *FaultDevice) Alloc() BlockID {
	d.mu.Lock()
	if d.plan.MaxBlocks > 0 && d.allocated >= d.plan.MaxBlocks {
		d.mu.Unlock()
		return NilBlock
	}
	d.allocated++
	d.mu.Unlock()
	return d.under.Alloc()
}

// AllocRun implements Device, with the same full-disk behavior as Alloc.
func (d *FaultDevice) AllocRun(n int) BlockID {
	d.mu.Lock()
	if d.plan.MaxBlocks > 0 && d.allocated+n > d.plan.MaxBlocks {
		d.mu.Unlock()
		return NilBlock
	}
	d.allocated += n
	d.mu.Unlock()
	return d.under.AllocRun(n)
}

// Free implements Device.
func (d *FaultDevice) Free(id BlockID) {
	if id == NilBlock {
		return
	}
	d.mu.Lock()
	if d.allocated > 0 {
		d.allocated--
	}
	d.mu.Unlock()
	d.under.Free(id)
}

// Read implements Device.
func (d *FaultDevice) Read(id BlockID) ([]byte, error) { return readAlloc(d, id, 1) }

// ReadRun implements Device.
func (d *FaultDevice) ReadRun(id BlockID, n int) ([]byte, error) { return readAlloc(d, id, n) }

// ReadRunInto implements Device. Each block of the run is checked against
// the plan before anything reaches the wrapped device, so per-block read
// errors and flips hit runs too; flips land in dst after the real read.
func (d *FaultDevice) ReadRunInto(id BlockID, n int, dst []byte) error {
	if err := checkRun(n, d.under.BlockSize(), dst); err != nil {
		return err
	}
	d.sleep()
	var few [8]int
	flips := few[:0]
	for i := 0; i < n; i++ {
		flip, err := d.checkRead(id + BlockID(i))
		if err != nil {
			return err
		}
		if flip {
			flips = append(flips, i)
		}
	}
	if err := d.under.ReadRunInto(id, n, dst); err != nil {
		return err
	}
	bs := d.under.BlockSize()
	for _, i := range flips {
		d.flipBit(dst[i*bs : (i+1)*bs])
	}
	return nil
}

// readArmed reports whether the plan can fail a read or flip its bytes.
func (p *FaultPlan) readArmed() bool {
	return len(p.FailReadAt) > 0 || len(p.FailReadBlocks) > 0 ||
		len(p.FlipReadAt) > 0 || len(p.FlipBlocks) > 0 || p.MaxBlocks > 0
}

// ChargeRun implements Device. While the plan arms any read-side fault it
// declines without touching the counters, so the caller reads the run
// through ReadRunInto and every planned error and flip fires on the ordinal
// it would have without a charge path. With a clean plan it forwards, and a
// run the wrapped device charged or failed counts n reads and pays Latency,
// as ReadRunInto would have.
func (d *FaultDevice) ChargeRun(id BlockID, n int, at uint64) (bool, error) {
	if n <= 0 {
		return false, errRunLength(n)
	}
	d.mu.Lock()
	armed := d.plan.readArmed()
	d.mu.Unlock()
	if armed {
		return false, nil
	}
	ok, err := d.under.ChargeRun(id, n, at)
	if !ok && err == nil {
		return false, nil
	}
	d.sleep()
	d.mu.Lock()
	d.reads += uint64(n)
	d.mu.Unlock()
	return ok, err
}

// WriteSeq implements Device.
func (d *FaultDevice) WriteSeq() uint64 { return d.under.WriteSeq() }

// Write implements Device.
func (d *FaultDevice) Write(id BlockID, data []byte) error {
	d.sleep()
	if err := d.checkWrite(id); err != nil {
		return err
	}
	return d.under.Write(id, data)
}

// WriteRun implements Device. A torn write persists only the run's first
// block, then fails — the classic partial-write crash signature.
func (d *FaultDevice) WriteRun(id BlockID, n int, data []byte) error {
	d.sleep()
	d.mu.Lock()
	d.runs++
	torn := contains(d.plan.TornWriteAt, d.runs)
	d.mu.Unlock()
	if torn && n > 1 {
		bs := d.under.BlockSize()
		first := data
		if len(first) > bs {
			first = first[:bs]
		}
		if err := d.Write(id, first); err != nil {
			return err
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.fail(KindTornWrite, OpWrite, id+1)
	}
	for i := 0; i < n; i++ {
		if err := d.checkWrite(id + BlockID(i)); err != nil {
			return err
		}
	}
	return d.under.WriteRun(id, n, data)
}

// Stats implements Device.
func (d *FaultDevice) Stats() Stats { return d.under.Stats() }

// ResetStats implements Device.
func (d *FaultDevice) ResetStats() { d.under.ResetStats() }

// NumBlocks implements Device.
func (d *FaultDevice) NumBlocks() int { return d.under.NumBlocks() }

// SizeBytes implements Device.
func (d *FaultDevice) SizeBytes() int64 { return d.under.SizeBytes() }
