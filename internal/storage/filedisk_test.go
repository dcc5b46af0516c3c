package storage

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newFileDisk(t *testing.T, blockSize int) *Disk {
	t.Helper()
	d, err := CreateFileDisk(filepath.Join(t.TempDir(), "disk.db"), blockSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestFileDiskRoundTrip(t *testing.T) {
	d := newFileDisk(t, 64)
	id := d.Alloc()
	if err := d.Write(id, []byte("durable bytes")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:13]) != "durable bytes" {
		t.Errorf("read back %q", got[:13])
	}
	for _, b := range got[13:] {
		if b != 0 {
			t.Fatal("short write not zero-padded")
		}
	}
}

func TestFileDiskReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.db")
	d, err := CreateFileDisk(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	a := d.Alloc()
	run := d.AllocRun(3)
	if err := d.Write(a, []byte("single")); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRun(run, 3, []byte("spanning multiple blocks of data")); err != nil {
		t.Fatal(err)
	}
	freed := d.Alloc()
	d.Free(freed)
	wantBlocks := d.NumBlocks()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.BlockSize() != 128 {
		t.Errorf("block size = %d", r.BlockSize())
	}
	if r.NumBlocks() != wantBlocks {
		t.Errorf("NumBlocks = %d, want %d", r.NumBlocks(), wantBlocks)
	}
	got, err := r.Read(a)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:6]) != "single" {
		t.Errorf("data lost across reopen: %q", got[:6])
	}
	runData, err := r.ReadRun(run, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(runData[:8]) != "spanning" {
		t.Errorf("run data lost: %q", runData[:8])
	}
	// The freed block is recycled after reopen.
	if id := r.Alloc(); id != freed {
		t.Errorf("free list lost: alloc = %d, want recycled %d", id, freed)
	}
	fresh, err := r.Read(freed)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range fresh {
		if b != 0 {
			t.Fatal("recycled block not zeroed")
		}
	}
}

func TestFileDiskAccounting(t *testing.T) {
	d := newFileDisk(t, 64)
	first := d.AllocRun(4)
	d.ResetStats()
	if _, err := d.ReadRun(first, 4); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.RandomReads != 1 || s.SequentialReads != 3 {
		t.Errorf("ReadRun stats = %+v", s)
	}
}

func TestFileDiskBadAccess(t *testing.T) {
	d := newFileDisk(t, 64)
	if _, err := d.Read(999); !errors.Is(err, ErrBadBlock) {
		t.Errorf("read unallocated: %v", err)
	}
	if _, err := d.Read(metaBlock); !errors.Is(err, ErrBadBlock) {
		t.Errorf("read metadata block: %v", err)
	}
	id := d.Alloc()
	if err := d.Write(id, make([]byte, 65)); !errors.Is(err, ErrBlockTooLarge) {
		t.Errorf("oversized write: %v", err)
	}
	// Free of invalid IDs is a no-op.
	d.Free(0)
	d.Free(999)
}

func TestFileDiskFault(t *testing.T) {
	d := newFileDisk(t, 64)
	id := d.Alloc()
	boom := errors.New("bad sector")
	d.SetFault(func(op Op, b BlockID) error { return boom })
	if _, err := d.Read(id); !errors.Is(err, boom) {
		t.Errorf("fault not propagated: %v", err)
	}
	d.SetFault(nil)
	if _, err := d.Read(id); err != nil {
		t.Errorf("after clearing fault: %v", err)
	}
}

func TestOpenFileDiskRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-disk")
	if err := writeFile(path, []byte("hello world, definitely not a disk header")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileDisk(path); err == nil {
		t.Error("garbage file opened as disk")
	}
	if _, err := OpenFileDisk(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file opened")
	}
}

// fileDiskHeader renders a metadata block the way writeMeta does.
func fileDiskHeader(blockSize uint32, next, freeHead, nAlloc uint64) []byte {
	hdr := make([]byte, 32)
	binary.LittleEndian.PutUint32(hdr[0:4], diskMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], blockSize)
	binary.LittleEndian.PutUint64(hdr[8:16], next)
	binary.LittleEndian.PutUint64(hdr[16:24], freeHead)
	binary.LittleEndian.PutUint64(hdr[24:32], nAlloc)
	return hdr
}

// TestOpenFileDiskValidatesHeader: a header whose magic survived but whose
// fields cannot describe a device is refused on open, by name, instead of
// turning into a 2 GB allocation or a free-chain walk into live data later.
func TestOpenFileDiskValidatesHeader(t *testing.T) {
	cases := []struct {
		name string
		hdr  []byte
	}{
		{"block size 2 GB", fileDiskHeader(0x7fffffff, 5, 0, 3)},
		{"block size above the bound", fileDiskHeader(MaxBlockSize+1, 5, 0, 3)},
		{"block size below the header", fileDiskHeader(16, 5, 0, 3)},
		{"next inside the metadata block", fileDiskHeader(64, 1, 0, 0)},
		{"next overflows the file offset", fileDiskHeader(64, 1<<62, 0, 0)},
		{"free head at the frontier", fileDiskHeader(64, 5, 5, 2)},
		{"free head on the metadata block", fileDiskHeader(64, 5, 1, 2)},
		{"more allocated than exist", fileDiskHeader(64, 5, 0, 4)},
		{"negative allocation count", fileDiskHeader(64, 5, 0, 1<<63)},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "disk.db")
		if err := writeFile(path, c.hdr); err != nil {
			t.Fatal(err)
		}
		d, err := OpenFileDisk(path)
		if err == nil {
			d.back.Close()
			t.Errorf("%s: opened cleanly", c.name)
			continue
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error does not name the file: %v", c.name, err)
		}
	}
	path := filepath.Join(t.TempDir(), "disk.db")
	if err := writeFile(path, fileDiskHeader(64, 5, 4, 2)); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatalf("valid header refused: %v", err)
	}
	d.back.Close()
}

// TestFileDiskAllocStopsAtBadFreeLink: the free chain lives in block
// payloads, which open cannot vet; a link that leaves the data blocks ends
// the chain instead of handing out the metadata block.
func TestFileDiskAllocStopsAtBadFreeLink(t *testing.T) {
	d := newFileDisk(t, 64)
	a, b := d.Alloc(), d.Alloc()
	d.Free(a)
	var link [8]byte
	binary.LittleEndian.PutUint64(link[:], uint64(metaBlock))
	if _, err := d.back.WriteAt(link[:], d.offset(a)); err != nil {
		t.Fatal(err)
	}
	if got := d.Alloc(); got != a {
		t.Fatalf("first alloc = %d, want the freed block %d", got, a)
	}
	if got := d.Alloc(); got != b+1 {
		t.Fatalf("alloc after a corrupt link = %d, want fresh block %d", got, b+1)
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestOpenFileDiskAtFrontier: a disk opened at a frontier takes no allocator
// state from its header — here zeroed, with a free list on the disk that
// wrote it — and cuts the file back to the frontier; blocks below it keep
// their bytes, the next allocation takes the frontier, and Seal on the
// writer had already given the same allocator. A file shorter than its
// frontier, or a frontier inside the header, is refused.
func TestOpenFileDiskAtFrontier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.db")
	d, err := CreateFileDisk(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := d.Alloc(), d.Alloc(), d.Alloc()
	for _, id := range []BlockID{a, b, c} {
		if err := d.Write(id, []byte{byte(id)}); err != nil {
			t.Fatal(err)
		}
	}
	d.Free(b)
	frontier := d.Seal()
	if frontier != c+1 || d.NumBlocks() != int(frontier-FirstBlock) {
		t.Fatalf("Seal = %d with %d blocks, want %d with %d", frontier, d.NumBlocks(), c+1, frontier-FirstBlock)
	}
	if got := d.Alloc(); got != frontier {
		t.Fatalf("alloc after Seal = %d, want the frontier %d", got, frontier)
	}
	if err := d.Write(frontier, []byte("past the frontier")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 32), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = OpenFileDiskAt(path, 64, frontier)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(a)
	if err != nil || got[0] != byte(a) {
		t.Fatalf("block %d below the frontier: %v %v", a, got[:1], err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != int64(frontier-1)*64 {
		t.Fatalf("file after the open: %v %v, want %d bytes", info.Size(), err, int64(frontier-1)*64)
	}
	if _, err := d.Read(frontier); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("block at the frontier reads %v, want ErrBadBlock", err)
	}
	if got := d.Alloc(); got != frontier || d.NumBlocks() != int(frontier-FirstBlock)+1 {
		t.Fatalf("alloc = %d with %d blocks, want %d", got, d.NumBlocks(), frontier)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenFileDisk(path)
	if err != nil {
		t.Fatalf("the rewritten header does not open: %v", err)
	}
	d.Close()

	if _, err := OpenFileDiskAt(path, 64, frontier+10); err == nil {
		t.Error("a file shorter than its frontier opened")
	}
	if _, err := OpenFileDiskAt(path, 64, metaBlock); err == nil {
		t.Error("a frontier on the header opened")
	}
}

// failingHeader is a file backing whose header writes fail while fail is set.
type failingHeader struct {
	*os.File
	fail   bool
	writes int
}

func (f *failingHeader) WriteAt(p []byte, off int64) (int, error) {
	if off == 0 {
		if f.fail {
			return 0, errors.New("header write failed")
		}
		f.writes++
	}
	return f.File.WriteAt(p, off)
}

// TestSyncMetaWritesOnlyADirtyHeader: SyncMeta rewrites the header only
// when the allocator changed since it was last written — after an Alloc
// whose eager write failed, not after one whose write went through, nor
// after data writes alone.
func TestSyncMetaWritesOnlyADirtyHeader(t *testing.T) {
	d := newFileDisk(t, 64)
	back := &failingHeader{File: d.back.(*os.File)}
	d.back = back
	id := d.Alloc()
	if back.writes != 1 {
		t.Fatalf("alloc wrote the header %d times, want 1", back.writes)
	}
	for i := 0; i < 3; i++ {
		if err := d.Write(id, []byte("data")); err != nil {
			t.Fatal(err)
		}
		if err := d.SyncMeta(); err != nil {
			t.Fatal(err)
		}
	}
	if back.writes != 1 {
		t.Fatalf("SyncMeta after data writes wrote the header %d more times", back.writes-1)
	}
	back.fail = true
	d.Alloc()
	back.fail = false
	if err := d.SyncMeta(); err != nil {
		t.Fatal(err)
	}
	if back.writes != 2 {
		t.Fatalf("SyncMeta after a failed eager write wrote the header %d times, want once", back.writes-1)
	}
}
