package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// backing holds a Disk's bytes: the header at offset 0 and block id at
// (id-1)*blockSize. *os.File is one; memBlocks is the other.
type backing interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Close() error
}

// CreateFileDisk creates (truncating) a Disk on the file at path.
func CreateFileDisk(path string, blockSize int) (*Disk, error) {
	if err := checkBlockSize(blockSize); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create file disk: %w", err)
	}
	d := newDisk(f, blockSize, FirstBlock)
	if err := d.writeMeta(); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return d, nil
}

// OpenFileDisk opens the Disk a CreateFileDisk left at path.
func OpenFileDisk(path string) (*Disk, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open file disk: %w", err)
	}
	var hdr [32]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, errors.Join(fmt.Errorf("storage: read file disk metadata: %w", err), f.Close())
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != diskMagic {
		return nil, errors.Join(fmt.Errorf("storage: %s is not a file disk", path), f.Close())
	}
	blockSize := int(binary.LittleEndian.Uint32(hdr[4:8]))
	next := BlockID(binary.LittleEndian.Uint64(hdr[8:16]))
	freeHead := BlockID(binary.LittleEndian.Uint64(hdr[16:24]))
	nAlloc := binary.LittleEndian.Uint64(hdr[24:32])
	var bad string
	switch {
	case checkBlockSize(blockSize) != nil:
		bad = fmt.Sprintf("block size %d", blockSize)
	case next < FirstBlock || uint64(next-1) > math.MaxInt64/uint64(blockSize):
		bad = fmt.Sprintf("next block %d", next)
	case freeHead != NilBlock && (freeHead < FirstBlock || freeHead >= next):
		bad = fmt.Sprintf("free-list head %d with next block %d", freeHead, next)
	case nAlloc > uint64(next-FirstBlock):
		bad = fmt.Sprintf("%d blocks allocated with next block %d", nAlloc, next)
	}
	if bad != "" {
		return nil, errors.Join(fmt.Errorf("storage: corrupt file disk header in %s: %s", path, bad), f.Close())
	}
	d := newDisk(f, blockSize, next)
	d.freeHead = freeHead
	d.nAlloc = int(nAlloc)
	d.metaDirty = false
	if fi, err := f.Stat(); err == nil {
		d.openBlocks = int(fi.Size() / int64(blockSize))
	}
	return d, nil
}

// OpenFileDiskAt opens the file at path as a Disk of blockSize-byte blocks
// whose allocation frontier is frontier (what Seal returned at a commit),
// taking no allocator state from the file's own header: the file is cut
// back to the frontier, dropping every block allocated after it, and the
// header is rewritten with every block below the frontier allocated and no
// free list. A file that ends before the frontier has lost blocks the
// commit wrote, and is refused.
func OpenFileDiskAt(path string, blockSize int, frontier BlockID) (*Disk, error) {
	if err := checkBlockSize(blockSize); err != nil {
		return nil, err
	}
	if frontier < FirstBlock || uint64(frontier-1) > math.MaxInt64/uint64(blockSize) {
		return nil, fmt.Errorf("storage: frontier %d for %s", frontier, path)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open file disk: %w", err)
	}
	size := int64(frontier-1) * int64(blockSize)
	fi, err := f.Stat()
	switch {
	case err != nil:
		return nil, errors.Join(fmt.Errorf("storage: open file disk: %w", err), f.Close())
	case fi.Size() < size:
		return nil, errors.Join(fmt.Errorf("storage: %s holds %d bytes, its frontier %d needs %d", path, fi.Size(), frontier, size), f.Close())
	}
	if err := f.Truncate(size); err != nil {
		return nil, errors.Join(fmt.Errorf("storage: cut file disk at its frontier: %w", err), f.Close())
	}
	d := newDisk(f, blockSize, frontier)
	d.nAlloc = int(frontier - FirstBlock)
	d.openBlocks = int(frontier - 1)
	if err := d.writeMeta(); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return d, nil
}

// memBlocks is the backing of NewDisk: each block's bytes in a map, keyed
// by offset / block size, without their trailing zeros — a block that was
// never written, or was zeroed, costs nothing and a freed one only its
// free-chain link. Every access must start on a block boundary, as a
// Disk's do.
// A Disk reads it under its mu held shared and writes it held exclusively,
// so it needs no lock of its own.
type memBlocks struct {
	size   int64
	blocks map[int64][]byte
}

// ReadAt reads the stored bytes, zeros where none are stored.
func (m *memBlocks) ReadAt(p []byte, off int64) (int, error) {
	for i, b := 0, off/m.size; i < len(p); i, b = i+int(m.size), b+1 {
		dst := p[i:min(len(p), i+int(m.size))]
		clear(dst[copy(dst, m.blocks[b]):])
	}
	return len(p), nil
}

// WriteAt stores p block by block. A write shorter than what a block holds
// keeps the rest; the block's new image is kept in its old slice when that
// is not more than twice the image.
func (m *memBlocks) WriteAt(p []byte, off int64) (int, error) {
	for i, b := 0, off/m.size; i < len(p); i, b = i+int(m.size), b+1 {
		img, old := p[i:min(len(p), i+int(m.size))], m.blocks[b]
		if len(img) < len(old) {
			img = append(img[:len(img):len(img)], old[len(img):]...)
		}
		switch img = trimZeros(img); {
		case len(img) == 0:
			delete(m.blocks, b)
		case len(img) <= cap(old) && cap(old) <= 2*len(img):
			m.blocks[b] = append(old[:0], img...)
		default:
			m.blocks[b] = bytes.Clone(img)
		}
	}
	return len(p), nil
}

// trimZeros returns b without its trailing zero bytes. A block written with
// a short payload is mostly zero tail, so it tests 32 bytes at a time.
func trimZeros(b []byte) []byte {
	n := len(b)
	for ; n >= 32; n -= 32 {
		w := b[n-32 : n]
		if binary.LittleEndian.Uint64(w)|binary.LittleEndian.Uint64(w[8:])|
			binary.LittleEndian.Uint64(w[16:])|binary.LittleEndian.Uint64(w[24:]) != 0 {
			break
		}
	}
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return b[:n]
}

// Sync implements backing: memory has nothing to sync.
func (m *memBlocks) Sync() error { return nil }

// Close implements backing: memory has nothing to release.
func (m *memBlocks) Close() error { return nil }

// SyncPath fsyncs the file or directory at path. Syncing a directory makes
// the names a rename or create put in it durable, which syncing the files
// does not.
func SyncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	return errors.Join(f.Sync(), f.Close())
}
