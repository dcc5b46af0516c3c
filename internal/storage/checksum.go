package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
)

// Checksummed block framing. ChecksumDisk wraps any Device and reserves the
// last four bytes of every underlying block for a CRC32-C (Castagnoli) of
// the payload, verified on every read. A bit flip anywhere in the block —
// payload or trailer — surfaces as a typed *CorruptBlockError carrying the
// BlockID instead of being deserialized into a wrong tree. The framing is
// opt-in (Config.Checksums) because it shrinks the usable block size by
// four bytes and costs one CRC per block access.

// checksumTrailerLen is the per-block framing overhead in bytes.
const checksumTrailerLen = 4

// castagnoli is the CRC32-C table; CRC32-C has hardware support on amd64
// and arm64, so the per-block cost is a few ns.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptBlockError reports a block whose stored checksum did not match its
// contents. It carries the BlockID so callers can attribute the corruption
// to a substrate region.
type CorruptBlockError struct {
	Block BlockID
}

// Error implements error.
func (e *CorruptBlockError) Error() string {
	return fmt.Sprintf("storage: checksum mismatch on block %d", e.Block)
}

// ChecksumDisk frames every block of the wrapped device with a CRC32-C
// trailer. Its BlockSize is four bytes smaller than the underlying one;
// callers size their records against it and never see the trailer.
//
// A block whose underlying bytes are all zero is treated as a valid
// never-written block (zero payload): freshly allocated blocks read as
// zeros on every Device, and CRC32-C of a zero payload is non-zero, so the
// all-zero pattern cannot be a validly checksummed frame and the two cases
// never collide.
type ChecksumDisk struct {
	under  Device
	frames sync.Pool // *[]byte: raw frames of one run, between the device and the CRC check
}

// NewChecksumDisk wraps under with checksum framing. It panics if the
// underlying block size leaves no payload room.
func NewChecksumDisk(under Device) *ChecksumDisk {
	if under.BlockSize() <= checksumTrailerLen {
		//skvet:ignore nopanic documented constructor invariant
		panic(fmt.Sprintf("storage: block size %d too small for checksum framing", under.BlockSize()))
	}
	c := &ChecksumDisk{under: under}
	c.frames.New = func() any { return new([]byte) }
	return c
}

// Under returns the wrapped device (so tests can corrupt raw frames and
// fault hooks can be installed on the real disk below).
func (c *ChecksumDisk) Under() Device { return c.under }

// BlockSize returns the usable payload size per block.
func (c *ChecksumDisk) BlockSize() int { return c.under.BlockSize() - checksumTrailerLen }

// Alloc implements Device.
func (c *ChecksumDisk) Alloc() BlockID { return c.under.Alloc() }

// AllocRun implements Device.
func (c *ChecksumDisk) AllocRun(n int) BlockID { return c.under.AllocRun(n) }

// Free implements Device.
func (c *ChecksumDisk) Free(id BlockID) { c.under.Free(id) }

// decode verifies one framed block and returns its payload.
func (c *ChecksumDisk) decode(id BlockID, frame []byte) ([]byte, error) {
	payload := frame[:len(frame)-checksumTrailerLen]
	trailer := binary.LittleEndian.Uint32(frame[len(frame)-checksumTrailerLen:])
	if trailer == 0 && allZero(frame) {
		return payload, nil // never written
	}
	if crc32.Checksum(payload, castagnoli) != trailer {
		return nil, &CorruptBlockError{Block: id}
	}
	return payload, nil
}

// encode frames a payload (padding to the payload size) into dst, which
// must be one underlying block long.
func (c *ChecksumDisk) encode(dst, payload []byte) {
	n := copy(dst, payload)
	for i := n; i < len(dst)-checksumTrailerLen; i++ {
		dst[i] = 0
	}
	sum := crc32.Checksum(dst[:len(dst)-checksumTrailerLen], castagnoli)
	binary.LittleEndian.PutUint32(dst[len(dst)-checksumTrailerLen:], sum)
}

// Read implements Device, verifying the block's checksum.
func (c *ChecksumDisk) Read(id BlockID) ([]byte, error) { return readAlloc(c, id, 1) }

// ReadRun implements Device, verifying every block of the run and returning
// the concatenated payloads.
func (c *ChecksumDisk) ReadRun(id BlockID, n int) ([]byte, error) { return readAlloc(c, id, n) }

// ReadRunInto implements Device: the run's raw frames land in a pooled
// buffer, each is verified, and only payloads reach dst.
func (c *ChecksumDisk) ReadRunInto(id BlockID, n int, dst []byte) error {
	pbs := c.BlockSize()
	if err := checkRun(n, pbs, dst); err != nil {
		return err
	}
	ubs := c.under.BlockSize()
	fp := c.frames.Get().(*[]byte)
	defer c.frames.Put(fp)
	if cap(*fp) < n*ubs {
		*fp = make([]byte, n*ubs)
	}
	frames := (*fp)[:n*ubs]
	if err := c.under.ReadRunInto(id, n, frames); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		payload, err := c.decode(id+BlockID(i), frames[i*ubs:(i+1)*ubs])
		if err != nil {
			return err
		}
		copy(dst[i*pbs:], payload)
	}
	return nil
}

// ChargeRun implements Device by always declining: checksum framing is the
// promise that every read verifies its CRC, so a caller holding an image
// must read the run again.
func (c *ChecksumDisk) ChargeRun(BlockID, int, uint64) (bool, error) { return false, nil }

// WriteSeq implements Device.
func (c *ChecksumDisk) WriteSeq() uint64 { return c.under.WriteSeq() }

// Write implements Device, framing the payload with its checksum.
func (c *ChecksumDisk) Write(id BlockID, data []byte) error {
	if len(data) > c.BlockSize() {
		return fmt.Errorf("%w: %d > %d", ErrBlockTooLarge, len(data), c.BlockSize())
	}
	frame := make([]byte, c.under.BlockSize())
	c.encode(frame, data)
	return c.under.Write(id, frame)
}

// WriteRun implements Device, framing each block of the run.
func (c *ChecksumDisk) WriteRun(id BlockID, n int, data []byte) error {
	pbs := c.BlockSize()
	if len(data) > n*pbs {
		return fmt.Errorf("%w: %d > %d", ErrBlockTooLarge, len(data), n*pbs)
	}
	ubs := c.under.BlockSize()
	frames := make([]byte, n*ubs)
	for i := 0; i < n; i++ {
		lo := i * pbs
		hi := lo + pbs
		if lo > len(data) {
			lo = len(data)
		}
		if hi > len(data) {
			hi = len(data)
		}
		c.encode(frames[i*ubs:(i+1)*ubs], data[lo:hi])
	}
	return c.under.WriteRun(id, n, frames)
}

// Stats implements Device.
func (c *ChecksumDisk) Stats() Stats { return c.under.Stats() }

// ResetStats implements Device.
func (c *ChecksumDisk) ResetStats() { c.under.ResetStats() }

// NumBlocks implements Device.
func (c *ChecksumDisk) NumBlocks() int { return c.under.NumBlocks() }

// SizeBytes implements Device.
func (c *ChecksumDisk) SizeBytes() int64 { return c.under.SizeBytes() }

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
