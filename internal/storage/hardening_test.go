package storage

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"
)

// --- FaultDevice ---

func TestFaultDeviceNthAccess(t *testing.T) {
	d := NewFaultDevice(NewDisk(64), FaultPlan{
		FailReadAt:  []uint64{2},
		FailWriteAt: []uint64{3},
	})
	a, b := d.Alloc(), d.Alloc()
	if err := d.Write(a, []byte("one")); err != nil { // write #1
		t.Fatalf("write 1: %v", err)
	}
	if err := d.Write(b, []byte("two")); err != nil { // write #2
		t.Fatalf("write 2: %v", err)
	}
	if _, err := d.Read(a); err != nil { // read #1
		t.Fatalf("read 1: %v", err)
	}
	_, err := d.Read(b) // read #2: injected
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Kind != KindReadError || fe.Block != b || fe.Op != OpRead {
		t.Fatalf("read 2: want *FaultError{read-error, %d}, got %v", b, err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("read 2: error does not unwrap to ErrInjected: %v", err)
	}
	if !IsIOFault(err) {
		t.Fatalf("IsIOFault(%v) = false", err)
	}
	err = d.Write(a, []byte("x")) // write #3: injected
	if !errors.As(err, &fe) || fe.Kind != KindWriteError || fe.Block != a {
		t.Fatalf("write 3: want *FaultError{write-error, %d}, got %v", a, err)
	}
	if got := d.Injected(); got != 2 {
		t.Fatalf("Injected() = %d, want 2", got)
	}
}

func TestFaultDeviceBlockTargets(t *testing.T) {
	under := NewDisk(64)
	d := NewFaultDevice(under, FaultPlan{})
	a, b := d.Alloc(), d.Alloc()
	d.SetPlan(FaultPlan{FailReadBlocks: []BlockID{b}, FailWriteBlocks: []BlockID{a}})

	var fe *FaultError
	if err := d.Write(a, []byte("x")); !errors.As(err, &fe) || fe.Block != a {
		t.Fatalf("write a: want fault on %d, got %v", a, err)
	}
	if err := d.Write(b, []byte("y")); err != nil {
		t.Fatalf("write b: %v", err)
	}
	if _, err := d.Read(b); !errors.As(err, &fe) || fe.Block != b {
		t.Fatalf("read b: want fault on %d, got %v", b, err)
	}
}

func TestFaultDeviceBitFlipDeterministic(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAA}, 32)
	run := func(seed int64) []byte {
		d := NewFaultDevice(NewDisk(64), FaultPlan{Seed: seed, FlipReadAt: []uint64{1}})
		id := d.Alloc()
		if err := d.Write(id, payload); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := d.Read(id)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return got
	}
	one, two := run(7), run(7)
	if !bytes.Equal(one, two) {
		t.Fatalf("same seed produced different flips:\n%x\n%x", one, two)
	}
	if bytes.Equal(one[:32], payload) {
		t.Fatalf("no bit was flipped")
	}
	diff := 0
	for i := range payload {
		for bit := 0; bit < 8; bit++ {
			if (one[i]^payload[i])>>bit&1 == 1 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("flipped %d bits, want exactly 1", diff)
	}
}

func TestFaultDeviceTornWriteRun(t *testing.T) {
	const bs = MinBlockSize
	under := NewDisk(bs)
	d := NewFaultDevice(under, FaultPlan{TornWriteAt: []uint64{1}})
	id := d.AllocRun(3)
	data := bytes.Repeat([]byte{0x5A}, 3*bs)
	err := d.WriteRun(id, 3, data)
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Kind != KindTornWrite {
		t.Fatalf("want torn-write fault, got %v", err)
	}
	// First block persisted, rest untouched (still zero).
	first, err := under.Read(id)
	if err != nil {
		t.Fatalf("read first: %v", err)
	}
	if !bytes.Equal(first, data[:bs]) {
		t.Fatalf("first block not persisted: %x", first)
	}
	second, err := under.Read(id + 1)
	if err != nil {
		t.Fatalf("read second: %v", err)
	}
	if !allZero(second) {
		t.Fatalf("second block should be untouched, got %x", second)
	}
	// Second run is clean.
	if err := d.WriteRun(id, 3, data); err != nil {
		t.Fatalf("second WriteRun: %v", err)
	}
}

func TestFaultDeviceFullDisk(t *testing.T) {
	d := NewFaultDevice(NewDisk(64), FaultPlan{MaxBlocks: 2})
	a, b := d.Alloc(), d.Alloc()
	if a == NilBlock || b == NilBlock {
		t.Fatalf("first two allocs should succeed, got %d %d", a, b)
	}
	if id := d.Alloc(); id != NilBlock {
		t.Fatalf("third alloc should fail, got %d", id)
	}
	if id := d.AllocRun(2); id != NilBlock {
		t.Fatalf("AllocRun past capacity should fail, got %d", id)
	}
	var fe *FaultError
	if err := d.Write(NilBlock, []byte("x")); !errors.As(err, &fe) || fe.Kind != KindAllocFail {
		t.Fatalf("write to NilBlock: want alloc-fail fault, got %v", err)
	}
	if _, err := d.Read(NilBlock); !errors.As(err, &fe) || fe.Kind != KindAllocFail {
		t.Fatalf("read of NilBlock: want alloc-fail fault, got %v", err)
	}
	// Freeing makes room again.
	d.Free(a)
	if id := d.Alloc(); id == NilBlock {
		t.Fatalf("alloc after free should succeed")
	}
}

func TestFaultDeviceLatency(t *testing.T) {
	d := NewFaultDevice(NewDisk(64), FaultPlan{Latency: 5 * time.Millisecond})
	id := d.Alloc()
	start := time.Now()
	if err := d.Write(id, []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := d.Read(id); err != nil {
		t.Fatalf("read: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("latency not injected: two accesses took %v", elapsed)
	}
}

func TestFaultDeviceRunFaults(t *testing.T) {
	const bs = MinBlockSize
	under := NewDisk(bs)
	d := NewFaultDevice(under, FaultPlan{})
	id := d.AllocRun(3)
	data := bytes.Repeat([]byte{1}, 3*bs)
	if err := d.WriteRun(id, 3, data); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	d.SetPlan(FaultPlan{FailReadBlocks: []BlockID{id + 1}})
	_, err := d.ReadRun(id, 3)
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Block != id+1 {
		t.Fatalf("ReadRun: want fault on middle block %d, got %v", id+1, err)
	}
	d.SetPlan(FaultPlan{FlipBlocks: []BlockID{id + 2}, Seed: 3})
	got, err := d.ReadRun(id, 3)
	if err != nil {
		t.Fatalf("ReadRun with flip: %v", err)
	}
	if !bytes.Equal(got[:2*bs], data[:2*bs]) {
		t.Fatalf("unflipped prefix changed")
	}
	if bytes.Equal(got[2*bs:], data[2*bs:]) {
		t.Fatalf("flip on last run block did not land")
	}
	d.SetPlan(FaultPlan{FailWriteBlocks: []BlockID{id + 2}})
	if err := d.WriteRun(id, 3, data); !errors.As(err, &fe) || fe.Block != id+2 {
		t.Fatalf("WriteRun: want fault on %d, got %v", id+2, err)
	}
}

func TestFaultDevicePassThrough(t *testing.T) {
	under := NewDisk(64)
	d := NewFaultDevice(under, FaultPlan{})
	if d.BlockSize() != 64 {
		t.Fatalf("BlockSize = %d", d.BlockSize())
	}
	id := d.Alloc()
	if err := d.Write(id, []byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := d.Read(id)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got[:5]) != "hello" {
		t.Fatalf("round trip: %q", got[:5])
	}
	if d.Stats() != under.Stats() {
		t.Fatalf("stats not passed through")
	}
	if d.NumBlocks() != 1 || d.SizeBytes() != 64 {
		t.Fatalf("NumBlocks/SizeBytes wrong: %d %d", d.NumBlocks(), d.SizeBytes())
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Fatalf("ResetStats did not reset")
	}
	if d.Under() != Device(under) {
		t.Fatalf("Under() mismatch")
	}
}

func TestFaultKindStrings(t *testing.T) {
	want := map[FaultKind]string{
		KindReadError:  "read-error",
		KindWriteError: "write-error",
		KindTornWrite:  "torn-write",
		KindAllocFail:  "alloc-fail",
		FaultKind(99):  "fault(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("FaultKind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestIsIOFault(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain"), false},
		{&FaultError{Kind: KindReadError, Op: OpRead, Block: 3}, true},
		{&CorruptBlockError{Block: 7}, true},
		{ErrBadBlock, true},
	}
	for _, c := range cases {
		if got := IsIOFault(c.err); got != c.want {
			t.Errorf("IsIOFault(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// --- ChecksumDisk ---

func TestChecksumRoundTrip(t *testing.T) {
	d := NewChecksumDisk(NewDisk(64))
	if d.BlockSize() != 60 {
		t.Fatalf("payload size = %d, want 60", d.BlockSize())
	}
	id := d.Alloc()
	msg := []byte("spatial keyword search")
	if err := d.Write(id, msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := d.Read(id)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != 60 || !bytes.Equal(got[:len(msg)], msg) {
		t.Fatalf("round trip: %q", got)
	}
}

func TestChecksumFreshBlockReadsZero(t *testing.T) {
	d := NewChecksumDisk(NewDisk(64))
	id := d.Alloc()
	got, err := d.Read(id)
	if err != nil {
		t.Fatalf("read of never-written block: %v", err)
	}
	if !allZero(got) {
		t.Fatalf("fresh block not zero: %x", got)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	under := NewDisk(64)
	d := NewChecksumDisk(under)
	id := d.Alloc()
	if err := d.Write(id, []byte("payload")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Flip one payload bit on the raw device, keeping the trailer.
	raw, err := under.Read(id)
	if err != nil {
		t.Fatalf("raw read: %v", err)
	}
	raw[3] ^= 0x10
	if err := under.Write(id, raw); err != nil {
		t.Fatalf("raw write: %v", err)
	}
	_, err = d.Read(id)
	var ce *CorruptBlockError
	if !errors.As(err, &ce) || ce.Block != id {
		t.Fatalf("want *CorruptBlockError{%d}, got %v", id, err)
	}
	if !IsIOFault(err) {
		t.Fatalf("IsIOFault(corrupt) = false")
	}
}

func TestChecksumDetectsTrailerCorruption(t *testing.T) {
	under := NewDisk(64)
	d := NewChecksumDisk(under)
	id := d.Alloc()
	if err := d.Write(id, []byte("payload")); err != nil {
		t.Fatalf("write: %v", err)
	}
	raw, _ := under.Read(id)
	raw[63] ^= 0x01 // trailer byte
	if err := under.Write(id, raw); err != nil {
		t.Fatalf("raw write: %v", err)
	}
	var ce *CorruptBlockError
	if _, err := d.Read(id); !errors.As(err, &ce) {
		t.Fatalf("want corrupt error on trailer damage, got %v", err)
	}
}

func TestChecksumRunRoundTripAndCorruption(t *testing.T) {
	under := NewDisk(32)
	d := NewChecksumDisk(under)
	pbs := d.BlockSize() // 28
	id := d.AllocRun(3)
	data := bytes.Repeat([]byte{0xC3}, 3*pbs)
	if err := d.WriteRun(id, 3, data); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	got, err := d.ReadRun(id, 3)
	if err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("run round trip mismatch")
	}
	// Corrupt the middle underlying block.
	raw, _ := under.Read(id + 1)
	raw[5] ^= 0x80
	if err := under.Write(id+1, raw); err != nil {
		t.Fatalf("raw write: %v", err)
	}
	var ce *CorruptBlockError
	if _, err := d.ReadRun(id, 3); !errors.As(err, &ce) || ce.Block != id+1 {
		t.Fatalf("want corrupt error on block %d, got %v", id+1, err)
	}
}

func TestChecksumShortRunPayload(t *testing.T) {
	d := NewChecksumDisk(NewDisk(32))
	id := d.AllocRun(3)
	// Payload covers only 1.5 blocks; the rest must read back as zeros.
	data := bytes.Repeat([]byte{9}, d.BlockSize()*3/2)
	if err := d.WriteRun(id, 3, data); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	got, err := d.ReadRun(id, 3)
	if err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatalf("payload mismatch")
	}
	if !allZero(got[len(data):]) {
		t.Fatalf("padding not zero")
	}
}

func TestChecksumRejectsOversizedWrites(t *testing.T) {
	d := NewChecksumDisk(NewDisk(64))
	id := d.Alloc()
	if err := d.Write(id, make([]byte, 61)); !errors.Is(err, ErrBlockTooLarge) {
		t.Fatalf("oversized Write: want ErrBlockTooLarge, got %v", err)
	}
	run := d.AllocRun(2)
	if err := d.WriteRun(run, 2, make([]byte, 121)); !errors.Is(err, ErrBlockTooLarge) {
		t.Fatalf("oversized WriteRun: want ErrBlockTooLarge, got %v", err)
	}
}

func TestChecksumWithFaultDeviceFlip(t *testing.T) {
	// The full stack: a silent bit flip injected below the checksum layer
	// must surface as a typed corruption error, never as wrong data.
	fd := NewFaultDevice(NewDisk(64), FaultPlan{Seed: 11, FlipReadAt: []uint64{2}})
	d := NewChecksumDisk(fd)
	id := d.Alloc()
	if err := d.Write(id, []byte("important bytes")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := d.Read(id); err != nil { // read #1: clean
		t.Fatalf("read 1: %v", err)
	}
	_, err := d.Read(id) // read #2: flipped below us
	var ce *CorruptBlockError
	if !errors.As(err, &ce) || ce.Block != id {
		t.Fatalf("want *CorruptBlockError{%d} from flipped read, got %v", id, err)
	}
}

func TestChecksumPassThrough(t *testing.T) {
	under := NewDisk(64)
	d := NewChecksumDisk(under)
	id := d.Alloc()
	_ = d.Write(id, []byte("x"))
	if d.Stats() != under.Stats() || d.NumBlocks() != under.NumBlocks() || d.SizeBytes() != under.SizeBytes() {
		t.Fatalf("pass-through accessors diverge")
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Fatalf("ResetStats not forwarded")
	}
	if d.Under() != Device(under) {
		t.Fatalf("Under() mismatch")
	}
	d.Free(id)
	if under.NumBlocks() != 0 {
		t.Fatalf("Free not forwarded")
	}
}

// tinyDevice is a Device whose blocks leave no room for a checksum: no Disk
// is that small, so only a stub reaches NewChecksumDisk's own check.
type tinyDevice struct{ Device }

func (tinyDevice) BlockSize() int { return checksumTrailerLen }

func TestChecksumTooSmallBlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for tiny block size")
		}
	}()
	NewChecksumDisk(tinyDevice{})
}

// --- Disk.SyncMeta ---

func TestFileDiskSyncMeta(t *testing.T) {
	path := t.TempDir() + "/disk.db"
	d, err := CreateFileDisk(path, 64)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id := d.Alloc()
	if err := d.Write(id, []byte("persisted")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := d.SyncMeta(); err != nil {
		t.Fatalf("SyncMeta: %v", err)
	}
	// A copy of the file taken now must open with the allocator state
	// intact, without the original ever being closed.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read file: %v", err)
	}
	copyPath := t.TempDir() + "/copy.db"
	if err := os.WriteFile(copyPath, data, 0o644); err != nil {
		t.Fatalf("write copy: %v", err)
	}
	d2, err := OpenFileDisk(copyPath)
	if err != nil {
		t.Fatalf("open copy: %v", err)
	}
	defer d2.Close()
	got, err := d2.Read(id)
	if err != nil {
		t.Fatalf("read from copy: %v", err)
	}
	if string(got[:9]) != "persisted" {
		t.Fatalf("copy lost data: %q", got[:9])
	}
	d.Close()
}
