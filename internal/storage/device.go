package storage

import "fmt"

// Device is the block-device abstraction the index structures are built on.
// *Disk is the one device that stores blocks, on a file (the served,
// durable engines) or in memory (the simulator the evaluation meters);
// *ChecksumDisk and *FaultDevice wrap it.
//
// Every device has exactly one read body, ReadRunInto; Read and ReadRun are
// its allocating forms (readAlloc). Validation, the fault hook, the
// random/sequential accounting and the data movement therefore happen in one
// place per device, and a reader that owns a scratch buffer pays no
// allocation on any of them — wrapped or not. ChargeRun shares that body's
// admission (validation, hook, accounting) and moves no bytes: it is how a
// reader that already holds a run's image, and can show from the device's
// write stamps that the image is current, pays the run's modeled I/O.
type Device interface {
	// BlockSize returns the block size in bytes.
	BlockSize() int
	// Alloc reserves one block.
	Alloc() BlockID
	// AllocRun reserves n consecutive blocks, returning the first ID.
	AllocRun(n int) BlockID
	// Free releases a block.
	Free(id BlockID)
	// ReadRunInto reads n consecutive blocks starting at id into dst, which
	// must hold at least n blocks. Blocks are validated, passed to the fault
	// hook and charged one by one in order, so a fault on the i-th block of a
	// run leaves i blocks charged; n <= 0 and a short dst are errors that
	// charge nothing. Every byte of dst[:n*BlockSize()] is written: blocks
	// (or block tails) that were never written read as zeros.
	ReadRunInto(id BlockID, n int, dst []byte) error
	// Read returns a copy of one block: ReadRunInto into a fresh buffer.
	Read(id BlockID) ([]byte, error)
	// ReadRun reads n consecutive blocks into one fresh buffer.
	ReadRun(id BlockID, n int) ([]byte, error)
	// Write stores up to BlockSize bytes into a block.
	Write(id BlockID, data []byte) error
	// WriteRun stores data across n consecutive blocks.
	WriteRun(id BlockID, n int, data []byte) error
	// WriteSeq returns the device's write sequence: a counter that every
	// Write, WriteRun, recycling Alloc and Free advances, stamping each
	// block whose bytes it changes with the new value. A reader takes it
	// before reading a run and hands it to ChargeRun later.
	WriteSeq() uint64
	// ChargeRun charges a read of n consecutive blocks starting at id
	// without moving any bytes, provided no block of the run was stamped
	// after at. It then reports true, having run ReadRunInto's validation,
	// fault hook and accounting block by block (a fault on the i-th block
	// leaves i blocks charged; n <= 0 and a missing block fail as they do
	// there). If a block was stamped after at, or the device cannot vouch
	// for its blocks, it does nothing and reports false: the caller must
	// read the run.
	ChargeRun(id BlockID, n int, at uint64) (bool, error)
	// Stats returns a snapshot of the access counters.
	Stats() Stats
	// ResetStats zeroes the access counters.
	ResetStats()
	// NumBlocks returns the number of allocated blocks.
	NumBlocks() int
	// SizeBytes returns the allocated footprint in bytes.
	SizeBytes() int64
}

var (
	_ Device = (*Disk)(nil)
	_ Device = (*ChecksumDisk)(nil)
	_ Device = (*FaultDevice)(nil)
)

func errRunLength(n int) error {
	return fmt.Errorf("storage: invalid run length %d", n)
}

// checkRun validates the arguments every ReadRunInto shares: a positive run
// length and a dst that holds it.
func checkRun(n, blockSize int, dst []byte) error {
	if n <= 0 {
		return errRunLength(n)
	}
	if len(dst)/blockSize < n {
		return fmt.Errorf("storage: short buffer %d for %d-block run", len(dst), n)
	}
	return nil
}

// readAlloc is the body of every device's Read and ReadRun: ReadRunInto into
// a buffer of exactly the run's size.
func readAlloc(dev Device, id BlockID, n int) ([]byte, error) {
	if n <= 0 {
		return nil, errRunLength(n)
	}
	buf := make([]byte, n*dev.BlockSize())
	if err := dev.ReadRunInto(id, n, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Meter measures the I/O performed by a bracketed operation on a Device.
// Typical use:
//
//	m := storage.StartMeter(dev)
//	... perform queries ...
//	cost := m.Stop()
type Meter struct {
	dev   Device
	start Stats
}

// StartMeter snapshots the device counters.
func StartMeter(dev Device) *Meter {
	return &Meter{dev: dev, start: dev.Stats()}
}

// Stop returns the I/O performed since StartMeter.
func (m *Meter) Stop() Stats {
	return m.dev.Stats().Sub(m.start)
}
