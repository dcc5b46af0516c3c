package storage

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestAllocReadWriteRoundTrip(t *testing.T) {
	d := NewDisk(64)
	id := d.Alloc()
	if id == NilBlock {
		t.Fatal("Alloc returned nil block")
	}
	payload := []byte("hello, disk")
	if err := d.Write(id, payload); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 64 {
		t.Fatalf("Read returned %d bytes, want full block of 64", len(got))
	}
	if string(got[:len(payload)]) != string(payload) {
		t.Errorf("Read = %q, want prefix %q", got[:len(payload)], payload)
	}
	for _, b := range got[len(payload):] {
		if b != 0 {
			t.Fatal("tail of short write not zero-filled")
		}
	}
}

func TestReadUnallocatedBlockFails(t *testing.T) {
	d := NewDisk(64)
	if _, err := d.Read(42); !errors.Is(err, ErrBadBlock) {
		t.Errorf("Read of unallocated block: err = %v, want ErrBadBlock", err)
	}
	if err := d.Write(42, []byte("x")); !errors.Is(err, ErrBadBlock) {
		t.Errorf("Write of unallocated block: err = %v, want ErrBadBlock", err)
	}
}

func TestWriteTooLargeFails(t *testing.T) {
	d := NewDisk(MinBlockSize)
	id := d.Alloc()
	if err := d.Write(id, make([]byte, MinBlockSize+1)); !errors.Is(err, ErrBlockTooLarge) {
		t.Errorf("oversized write: err = %v, want ErrBlockTooLarge", err)
	}
}

func TestFreshBlockReadsZero(t *testing.T) {
	d := NewDisk(MinBlockSize)
	id := d.Alloc()
	got, err := d.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("fresh block not zeroed")
		}
	}
}

func TestSequentialAccounting(t *testing.T) {
	d := NewDisk(32)
	first := d.AllocRun(4)

	// Reading the run in order: 1 random + 3 sequential.
	for i := 0; i < 4; i++ {
		if _, err := d.Read(first + BlockID(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.RandomReads != 1 || s.SequentialReads != 3 {
		t.Errorf("in-order reads: %+v, want 1 random + 3 sequential", s)
	}

	d.ResetStats()
	// Reading the run in reverse: all random.
	for i := 3; i >= 0; i-- {
		if _, err := d.Read(first + BlockID(i)); err != nil {
			t.Fatal(err)
		}
	}
	s = d.Stats()
	if s.RandomReads != 4 || s.SequentialReads != 0 {
		t.Errorf("reverse reads: %+v, want 4 random", s)
	}

	d.ResetStats()
	// Re-reading the same block is a random access (head already past it).
	if _, err := d.Read(first); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(first); err != nil {
		t.Fatal(err)
	}
	s = d.Stats()
	if s.RandomReads != 2 {
		t.Errorf("repeated read: %+v, want 2 random", s)
	}
}

func TestReadRunAccounting(t *testing.T) {
	const bs = MinBlockSize
	d := NewDisk(bs)
	first := d.AllocRun(3)
	blk0 := strings.Repeat("0123456789abcdef", bs/16)
	blk1 := strings.Repeat("GHIJKLMNOPQRSTUV", bs/16)
	if err := d.WriteRun(first, 3, []byte(blk0+blk1+"xyz")); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	data, err := d.ReadRun(first, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 3*bs {
		t.Fatalf("ReadRun length = %d, want %d", len(data), 3*bs)
	}
	if string(data[:bs]) != blk0 || string(data[bs:2*bs]) != blk1 || string(data[2*bs:2*bs+3]) != "xyz" {
		t.Errorf("ReadRun data mismatch: %q", data)
	}
	s := d.Stats()
	if s.RandomReads != 1 || s.SequentialReads != 2 {
		t.Errorf("ReadRun stats = %+v, want 1 random + 2 sequential", s)
	}
}

func TestWriteRunAccountingAndZeroFill(t *testing.T) {
	const bs = MinBlockSize
	d := NewDisk(bs)
	first := d.AllocRun(2)
	d.ResetStats()
	if err := d.WriteRun(first, 2, []byte("short")); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.RandomWrites != 1 || s.SequentialWrites != 1 {
		t.Errorf("WriteRun stats = %+v, want 1 random + 1 sequential write", s)
	}
	data, err := d.ReadRun(first, 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:5]) != "short" {
		t.Errorf("data = %q", data[:5])
	}
	for _, b := range data[5:] {
		if b != 0 {
			t.Fatal("remainder not zero-filled")
		}
	}
	if err := d.WriteRun(first, 2, make([]byte, 2*bs+1)); !errors.Is(err, ErrBlockTooLarge) {
		t.Errorf("oversized WriteRun err = %v", err)
	}
}

func TestFreeAndRecycle(t *testing.T) {
	d := NewDisk(MinBlockSize)
	a := d.Alloc()
	if err := d.Write(a, []byte("data")); err != nil {
		t.Fatal(err)
	}
	d.Free(a)
	if _, err := d.Read(a); !errors.Is(err, ErrBadBlock) {
		t.Errorf("read after free: err = %v, want ErrBadBlock", err)
	}
	b := d.Alloc()
	if b != a {
		t.Errorf("freed block not recycled: got %d, want %d", b, a)
	}
	got, err := d.Read(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range got {
		if c != 0 {
			t.Fatal("recycled block leaks previous contents")
		}
	}
}

func TestNumBlocksAndSize(t *testing.T) {
	d := NewDisk(4096)
	for i := 0; i < 10; i++ {
		d.Alloc()
	}
	if d.NumBlocks() != 10 {
		t.Errorf("NumBlocks = %d", d.NumBlocks())
	}
	if d.SizeBytes() != 10*4096 {
		t.Errorf("SizeBytes = %d", d.SizeBytes())
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{RandomReads: 10, SequentialReads: 5, RandomWrites: 3, SequentialWrites: 2}
	b := Stats{RandomReads: 4, SequentialReads: 1, RandomWrites: 2, SequentialWrites: 2}
	diff := a.Sub(b)
	if diff.RandomReads != 6 || diff.SequentialReads != 4 || diff.RandomWrites != 1 || diff.SequentialWrites != 0 {
		t.Errorf("Sub = %+v", diff)
	}
	sum := diff.Add(b)
	if sum != a {
		t.Errorf("Add(Sub) != original: %+v", sum)
	}
	if reads(a) != 15 || writes(a) != 5 || a.Random() != 13 || a.Sequential() != 7 || blocks(a) != 20 {
		t.Errorf("aggregates wrong: %+v", a)
	}
}

// reads, writes and blocks are a Stats' block reads, block writes and block
// accesses of either kind.
func reads(st Stats) uint64  { return st.RandomReads + st.SequentialReads }
func writes(st Stats) uint64 { return st.RandomWrites + st.SequentialWrites }
func blocks(st Stats) uint64 { return st.Random() + st.Sequential() }

func TestCostModel(t *testing.T) {
	cm := CostModel{RandomAccess: 10 * time.Millisecond, SequentialAccess: 1 * time.Millisecond}
	s := Stats{RandomReads: 3, SequentialReads: 5, RandomWrites: 1, SequentialWrites: 1}
	if got, want := cm.Time(s), 46*time.Millisecond; got != want {
		t.Errorf("Time = %v, want %v", got, want)
	}
	def := DefaultCostModel()
	if def.RandomAccess <= def.SequentialAccess {
		t.Error("default cost model should make random accesses dominant")
	}
}

func TestFaultInjection(t *testing.T) {
	d := NewDisk(MinBlockSize)
	id := d.Alloc()
	boom := errors.New("boom")
	d.SetFault(func(op Op, b BlockID) error {
		if op == OpRead && b == id {
			return boom
		}
		return nil
	})
	if _, err := d.Read(id); !errors.Is(err, boom) {
		t.Errorf("fault not propagated: %v", err)
	}
	// Writes still work, and stats did not count the failed read.
	if err := d.Write(id, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); reads(s) != 0 {
		t.Errorf("failed read was counted: %+v", s)
	}
	d.SetFault(nil)
	if _, err := d.Read(id); err != nil {
		t.Errorf("read after clearing fault: %v", err)
	}
}

func TestMeter(t *testing.T) {
	d := NewDisk(MinBlockSize)
	id := d.Alloc()
	if _, err := d.Read(id); err != nil {
		t.Fatal(err)
	}
	m := StartMeter(d)
	if _, err := d.Read(id); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(id); err != nil {
		t.Fatal(err)
	}
	got := m.Stop()
	if reads(got) != 2 {
		t.Errorf("meter reads = %d, want 2", reads(got))
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Error("Op.String mismatch")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{RandomReads: 1, SequentialReads: 2, RandomWrites: 3, SequentialWrites: 4}
	want := fmt.Sprintf("random=%d sequential=%d (reads %d+%d, writes %d+%d)", 4, 6, 1, 2, 3, 4)
	if s.String() != want {
		t.Errorf("String = %q, want %q", s.String(), want)
	}
}

func TestConcurrentDiskAccess(t *testing.T) {
	d := NewDisk(64)
	const workers = 8
	ids := make([]BlockID, workers)
	for i := range ids {
		ids[i] = d.Alloc()
	}
	done := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			for j := 0; j < 100; j++ {
				if err := d.Write(ids[i], []byte{byte(i)}); err != nil {
					done <- err
					return
				}
				data, err := d.Read(ids[i])
				if err != nil {
					done <- err
					return
				}
				if data[0] != byte(i) {
					done <- fmt.Errorf("worker %d read %d", i, data[0])
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < workers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := blocks(d.Stats()); got != workers*200 {
		t.Errorf("total accesses = %d, want %d", got, workers*200)
	}
}
