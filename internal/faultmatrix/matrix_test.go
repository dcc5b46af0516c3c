package faultmatrix

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"spatialkeyword/internal/core"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/invindex"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/wal"
)

// blockSize is small enough that every substrate's bulk structures span
// multiple blocks, so torn multi-block writes have a run to tear.
const blockSize = 256

// substrate is one column of the matrix: how to build the structure on a
// device and how to read it back afterwards. build must route every write
// through dev; read must route at least one read through it.
type substrate struct {
	name string
	// build constructs the structure on dev and returns a read op bound to
	// it. Errors during construction are returned from build itself.
	build func(dev storage.Device) (read func() error, err error)
}

// substrates lists the five storage substrates the engine is assembled
// from. The sigfile column goes through the IR²-Tree: signatures have no
// device of their own — they live in node aux payloads — so their fault
// surface is the signature-bearing node blocks. The wal column covers the
// write-ahead log's append and recovery paths.
func substrates() []substrate {
	return []substrate{
		{name: "rtree", build: buildRTree},
		{name: "invindex", build: buildInvIndex},
		{name: "sigfile", build: buildSigTree},
		{name: "objstore", build: buildObjStore},
		{name: "wal", build: buildWAL},
	}
}

// buildRTree inserts enough rectangles that nodes span several blocks
// (MaxEntries × entry size > blockSize).
func buildRTree(dev storage.Device) (func() error, error) {
	t, err := rtree.New(dev, rtree.Config{MaxEntries: 16})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 80; i++ {
		p := geo.NewPoint(float64(i%10), float64(i/10))
		if err := t.Insert(uint64(i), geo.NewRect(p, p), nil, nil); err != nil {
			return nil, err
		}
	}
	read := func() error {
		it := t.NearestNeighbors(geo.NewPoint(3.5, 3.5), nil)
		for {
			_, _, ok, err := it.Next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
	}
	return read, nil
}

// buildInvIndex builds postings big enough that the dictionary and posting
// regions are multi-block runs.
func buildInvIndex(dev storage.Device) (func() error, error) {
	ix := invindex.New(dev)
	for i := 0; i < 60; i++ {
		ix.AddDocument(uint64(i), fmt.Sprintf("doc%d common alpha beta gamma delta", i))
	}
	if err := ix.Build(); err != nil {
		return nil, err
	}
	read := func() error {
		_, err := ix.Postings("common")
		return err
	}
	return read, nil
}

// buildSigTree builds an IR²-Tree whose leaf signatures (64 bytes per
// entry) force multi-block nodes; reads traverse signature-bearing blocks.
func buildSigTree(dev storage.Device) (func() error, error) {
	store := objstore.New(storage.NewDisk(4096)) // object rows on a healthy disk
	for i := 0; i < 40; i++ {
		if _, _, err := store.Append(geo.NewPoint(float64(i%8), float64(i/8)), fmt.Sprintf("obj%d common word%d", i, i%5)); err != nil {
			return nil, err
		}
	}
	if err := store.Sync(); err != nil {
		return nil, err
	}
	tree, err := core.New(dev, store, core.Options{
		LeafSignature: sigfile.Config{LengthBytes: 64, BitsPerWord: 2},
		MaxEntries:    8,
	})
	if err != nil {
		return nil, err
	}
	if err := tree.Build(); err != nil {
		return nil, err
	}
	// The paper's top-k loop, whose tree keeps the signatures in its leaves.
	read := func() error {
		_, _, err := tree.TopK(5, geo.NewPoint(2, 2), []string{"common"})
		return err
	}
	return read, nil
}

// buildObjStore appends enough rows that the checkpoint's meta run spans
// blocks, then reads rows back.
func buildObjStore(dev storage.Device) (func() error, error) {
	store := objstore.New(dev)
	var ptrs []objstore.Ptr
	for i := 0; i < 400; i++ {
		_, ptr, err := store.Append(geo.NewPoint(float64(i), 1), fmt.Sprintf("row %d with a handful of words", i))
		if err != nil {
			return nil, err
		}
		ptrs = append(ptrs, ptr)
	}
	if _, err := store.Checkpoint(); err != nil {
		return nil, err
	}
	read := func() error {
		for _, ptr := range []objstore.Ptr{ptrs[0], ptrs[len(ptrs)/2], ptrs[len(ptrs)-1]} {
			if _, err := store.Get(ptr); err != nil {
				return err
			}
		}
		return nil
	}
	return read, nil
}

// buildWAL appends group-committed batches large enough that each commit is
// a multi-block WriteRun (so torn writes have a run to tear); reads recover
// the log from scratch, traversing every log block.
func buildWAL(dev storage.Device) (func() error, error) {
	l, err := wal.Create(dev)
	if err != nil {
		return nil, err
	}
	app := wal.NewAppender(l, 0)
	for i := 0; i < 40; i++ {
		rec := wal.Record{
			Op:    wal.OpAdd,
			ID:    uint64(i),
			Point: []float64{float64(i % 8), float64(i / 8)},
			Text:  fmt.Sprintf("wal row %d padded out with enough text that an eight-record batch spans several 256-byte blocks", i),
		}
		if _, err := app.AppendAsync(rec); err != nil {
			return nil, err
		}
		if i%8 == 7 {
			if err := app.Sync(); err != nil {
				return nil, err
			}
		}
	}
	if err := app.Sync(); err != nil {
		return nil, err
	}
	read := func() error {
		_, _, err := wal.Open(dev)
		return err
	}
	return read, nil
}

// wantTyped asserts the hardening contract for one matrix cell: err is
// non-nil, classified as an I/O fault, and carries block provenance via one
// of the two typed errors.
func wantTyped(t *testing.T, err error, wantKind storage.FaultKind, wantChecksum bool) {
	t.Helper()
	if err == nil {
		t.Fatal("fault swallowed: operation succeeded")
	}
	if !storage.IsIOFault(err) {
		t.Fatalf("error not classified as I/O fault: %v", err)
	}
	if wantChecksum {
		var ce *storage.CorruptBlockError
		if !errors.As(err, &ce) {
			t.Fatalf("want *CorruptBlockError, got %v", err)
		}
		return
	}
	if wantKind == storage.KindAllocFail && errors.Is(err, storage.ErrDeviceFull) {
		// Substrates that guard allocations surface full-disk as the
		// ErrDeviceFull sentinel before ever touching NilBlock.
		return
	}
	var fe *storage.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FaultError, got %v", err)
	}
	if fe.Kind != wantKind {
		t.Fatalf("fault kind = %s, want %s (err: %v)", fe.Kind, wantKind, err)
	}
}

// readArmed builds sub on dev, reads it clean once first when warm — so the
// reads after arming hit the nodes a tree has pinned, which a device may
// charge instead of reading — then arms fd with plan and returns the next
// read's error.
func readArmed(t *testing.T, sub substrate, fd *storage.FaultDevice, dev storage.Device, warm bool, plan func() storage.FaultPlan) error {
	t.Helper()
	read, err := sub.build(dev)
	if err != nil {
		t.Fatalf("clean build failed: %v", err)
	}
	if warm {
		if err := read(); err != nil {
			t.Fatalf("clean read failed: %v", err)
		}
	}
	fd.SetPlan(plan())
	return read()
}

// TestFaultMatrix drives every fault kind against every substrate. Read
// errors and bit flips each have a cold row (armed before the first read)
// and a warm one (armed after a clean read), and both must surface the same
// typed error: no cache or charge path may hide a planned read fault.
func TestFaultMatrix(t *testing.T) {
	checkNoGoroutineLeak(t)
	for _, sub := range substrates() {
		sub := sub
		t.Run(sub.name, func(t *testing.T) {
			for _, row := range []struct {
				name string
				warm bool
			}{{"read-error", true}, {"read-error-cold", false}} {
				t.Run(row.name, func(t *testing.T) {
					fd := storage.NewFaultDevice(storage.NewDisk(blockSize), storage.FaultPlan{})
					err := readArmed(t, sub, fd, fd, row.warm, func() storage.FaultPlan {
						return storage.FaultPlan{FailReadBlocks: allBlocks(fd)}
					})
					wantTyped(t, err, storage.KindReadError, false)
				})
			}
			t.Run("write-error", func(t *testing.T) {
				fd := storage.NewFaultDevice(storage.NewDisk(blockSize), storage.FaultPlan{FailWritesFrom: 5})
				_, err := sub.build(fd)
				wantTyped(t, err, storage.KindWriteError, false)
			})
			for _, row := range []struct {
				name string
				warm bool
			}{{"bit-flip", false}, {"bit-flip-warm", true}} {
				t.Run(row.name, func(t *testing.T) {
					// Checksum framing sits between the substrate and the
					// flip, so silent corruption surfaces as
					// *CorruptBlockError.
					fd := storage.NewFaultDevice(storage.NewDisk(blockSize), storage.FaultPlan{Seed: 7})
					err := readArmed(t, sub, fd, storage.NewChecksumDisk(fd), row.warm, func() storage.FaultPlan {
						return storage.FaultPlan{Seed: 7, FlipBlocks: allBlocks(fd)}
					})
					wantTyped(t, err, 0, true)
				})
			}
			t.Run("torn-run", func(t *testing.T) {
				fd := storage.NewFaultDevice(storage.NewDisk(blockSize), storage.FaultPlan{TornWriteAt: nextAccesses(256)})
				_, err := sub.build(fd)
				wantTyped(t, err, storage.KindTornWrite, false)
			})
			t.Run("alloc-fail", func(t *testing.T) {
				fd := storage.NewFaultDevice(storage.NewDisk(blockSize), storage.FaultPlan{MaxBlocks: 3})
				_, err := sub.build(fd)
				wantTyped(t, err, storage.KindAllocFail, false)
			})
		})
	}
}

// nextAccesses lists access ordinals 1..n — "fail whichever access comes
// next, wherever it lands", without caring how many accesses setup used.
// Useful only on a fresh device, whose counters start at zero.
func nextAccesses(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

// allBlocks lists every block ID the device could have handed out (plus a
// margin), so a block-targeted plan hits whatever the next access touches.
func allBlocks(d storage.Device) []storage.BlockID {
	out := make([]storage.BlockID, 0, d.NumBlocks()+4)
	for i := 1; i <= d.NumBlocks()+4; i++ {
		out = append(out, storage.BlockID(i))
	}
	return out
}

// checkNoGoroutineLeak fails the test if it ends with more goroutines than
// it started with (after a grace period for runtime bookkeeping).
func checkNoGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestFaultMatrixBlockProvenance pins the provenance detail: a fault
// targeted at one specific block reports exactly that block.
func TestFaultMatrixBlockProvenance(t *testing.T) {
	fd := storage.NewFaultDevice(storage.NewDisk(blockSize), storage.FaultPlan{})
	read, err := buildRTree(fd)
	if err != nil {
		t.Fatal(err)
	}
	// Fail every block: whichever the traversal touches first is reported.
	var blocks []storage.BlockID
	for i := 1; i <= fd.NumBlocks()+1; i++ {
		blocks = append(blocks, storage.BlockID(i))
	}
	fd.SetPlan(storage.FaultPlan{FailReadBlocks: blocks})
	err = read()
	var fe *storage.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FaultError, got %v", err)
	}
	if fe.Block == storage.NilBlock {
		t.Fatalf("fault lost block provenance: %+v", fe)
	}
	if fe.Op != storage.OpRead {
		t.Fatalf("fault op = %v, want read", fe.Op)
	}
}
