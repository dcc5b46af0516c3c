package spatialkeyword

import (
	"math"
	"testing"

	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// TestGetFlushedDoesNoWriteIO is the regression test for Get's write
// behavior: reading an object the tree holds must not sync or index
// anything — zero write I/O on either device — even while other objects are
// queued. A Get on a queued row syncs the object store's open block and
// indexes nothing: the index device takes no write and the row stays queued.
func TestGetFlushedDoesNoWriteIO(t *testing.T) {
	eng, err := NewEngine(Config{SignatureBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Add([]float64{float64(i), 0}, "flushed poi"); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	// Two queued objects that Get on a flushed ID must not disturb.
	var pendingID uint64
	for i := 0; i < 2; i++ {
		id, err := eng.Add([]float64{10, float64(i)}, "pending poi")
		if err != nil {
			t.Fatal(err)
		}
		pendingID = id
	}

	writes := func(before storage.Stats, d storage.Device) uint64 {
		st := d.Stats().Sub(before)
		return st.RandomWrites + st.SequentialWrites
	}
	objBefore, idxBefore := eng.objDisk.Stats(), eng.idxDisk.Stats()
	got, err := eng.Get(0)
	if err != nil {
		t.Fatalf("get flushed id: %v", err)
	}
	if got.Text != "flushed poi" {
		t.Fatalf("got %q", got.Text)
	}
	if objW, idxW := writes(objBefore, eng.objDisk), writes(idxBefore, eng.idxDisk); objW != 0 || idxW != 0 {
		t.Fatalf("Get on a flushed id performed write I/O: %d object writes, %d index writes", objW, idxW)
	}
	if len(eng.run) != 2 {
		t.Fatalf("Get on a flushed id indexed the run: %d queued, want 2", len(eng.run))
	}

	// Get on a queued row syncs the store only.
	got, err = eng.Get(pendingID)
	if err != nil {
		t.Fatalf("get queued id: %v", err)
	}
	if got.Text != "pending poi" {
		t.Fatalf("got %q", got.Text)
	}
	if idxW := writes(idxBefore, eng.idxDisk); idxW != 0 {
		t.Fatalf("Get on a queued id wrote %d index blocks, want 0", idxW)
	}
	if len(eng.run) != 2 {
		t.Fatalf("Get on a queued id left %d queued, want 2", len(eng.run))
	}
}

// TestFlushReadsNoRow: a flush indexes the words the add already found, so
// an Add and its Flush read no object-file block — neither the flush that
// packs the first batch into an empty tree nor one that inserts into the
// packed tree. Each row added after the pack is then found by a query for
// all of its words at its point.
func TestFlushReadsNoRow(t *testing.T) {
	rows, _ := packRows(t, dataset.Restaurants(0.01))
	e, err := NewEngine(Config{SignatureBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	add := func(r packRow) uint64 {
		t.Helper()
		id, err := e.Add(r.point, r.text)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	flushReads := func(what string) {
		t.Helper()
		before := e.objDisk.Stats()
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if d := e.objDisk.Stats().Sub(before); d.RandomReads+d.SequentialReads != 0 {
			t.Fatalf("%s read %d object-file blocks, want 0", what, d.RandomReads+d.SequentialReads)
		}
	}
	packed := len(rows) / 2
	before := e.objDisk.Stats()
	for _, r := range rows[:packed] {
		add(r)
	}
	flushReads("the flush into an empty tree")
	if d := e.objDisk.Stats().Sub(before); d.RandomReads+d.SequentialReads != 0 {
		t.Fatalf("the adds read %d object-file blocks, want 0", d.RandomReads+d.SequentialReads)
	}
	if e.tree.RTree().Height() == 0 {
		t.Fatal("the first flush left the tree empty")
	}
	var plain *textutil.Analyzer
	for i, r := range rows[packed : packed+20] {
		id := add(r)
		flushReads("a flush into the packed tree")
		res, err := e.TopK(1, r.point, plain.Unique(r.text)...)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Object.ID != id {
			t.Fatalf("row %d added after the pack: query for its words answers %+v, want ID %d", i, res, id)
		}
	}
}

// TestFailedFlushIndexesEachRowOnce fails an index-device write in the add
// that fills a leaf's worth of queued rows over a packed tree — the leaf
// write of a row's insert, found by a fault-free run of the same adds — so
// the tree takes the rows before it and no part of it. The add returns the
// error; a range query over the added rows then returns each once (the rows
// the tree took are no longer in the run); and once the device recovers,
// Flush indexes the rest and the tree holds every row exactly once.
func TestFailedFlushIndexesEachRowOnce(t *testing.T) {
	rows, _ := packRows(t, dataset.Restaurants(0.005))
	const marker = "zzqueued"
	build := func() (*Engine, []packRow) { return queuedRunEngine(t, rows, marker) }
	last := func(added []packRow) packRow { return added[len(added)-1] }

	// The fault-free run: every index write of the flush, and the root's.
	dry, added := build()
	var writes []storage.BlockID
	setDeviceFault(dry.idxDisk, func(op storage.Op, id storage.BlockID) error {
		if op == storage.OpWrite {
			writes = append(writes, id)
		}
		return nil
	})
	if _, err := dry.Add(last(added).point, last(added).text+" "+marker); err != nil {
		t.Fatal(err)
	}
	root, err := dry.tree.RTree().Root()
	if err != nil {
		t.Fatal(err)
	}
	// Every insert ends by writing the root, one hook call per block of
	// it: a root write is the run of consecutive blocks from the root's
	// first, the shortest such run its true length (a node the next insert
	// writes can sit right after the root).
	var roots []int // where each root write starts in writes
	nb := len(writes)
	for i := 0; i < len(writes); i++ {
		if writes[i] != root.ID() {
			continue
		}
		j := i + 1
		for j < len(writes) && writes[j] == writes[j-1]+1 {
			j++
		}
		roots, nb = append(roots, i), min(nb, j-i)
		i = j - 1
	}
	// The first insert after the first that writes its leaf and the root
	// and nothing else: failing its leaf write leaves the tree exactly as
	// the inserts before it left it (a failed split would leak the
	// sibling's blocks).
	fail, took := 0, 0
	for m := 1; m < len(roots); m++ {
		if start := roots[m-1] + nb; roots[m]-start == nb {
			fail, took = start+1, m
			break
		}
	}
	if fail == 0 {
		t.Fatalf("no insert into a leaf with room in %d index writes", len(writes))
	}

	e, _ := build()
	n := 0
	setDeviceFault(e.idxDisk, func(op storage.Op, id storage.BlockID) error {
		if op == storage.OpWrite {
			if n++; n == fail {
				return &storage.FaultError{Kind: storage.KindWriteError, Op: op, Block: id}
			}
		}
		return nil
	})
	if _, err := e.Add(last(added).point, last(added).text+" "+marker); err == nil {
		t.Fatal("the add that fills the run flushed through a failing index write")
	}
	if got := e.tree.RTree().Len(); got != 1000+took || len(e.run) != len(added)-took {
		t.Fatalf("tree holds %d rows and the run %d, want %d and %d", got, len(e.run), 1000+took, len(added)-took)
	}
	lo, hi := []float64{-math.MaxFloat64, -math.MaxFloat64}, []float64{math.MaxFloat64, math.MaxFloat64}
	each := func(stage string) {
		t.Helper()
		res, _, err := e.WithinArea(lo, hi, marker)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[uint64]int)
		for _, r := range res {
			seen[r.Object.ID]++
		}
		for id := uint64(1000); id < uint64(1000+len(added)); id++ {
			if seen[id] != 1 {
				t.Fatalf("%s: row %d answered %d times (%d answers for %d added rows)", stage, id, seen[id], len(res), len(added))
			}
		}
	}
	each("after the failed flush")
	setDeviceFault(e.idxDisk, nil)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	checkTree(t, e)
	if got := e.tree.RTree().Len(); got != 1000+len(added) || len(e.run) != 0 {
		t.Fatalf("tree holds %d rows and the run %d, want %d and 0", got, len(e.run), 1000+len(added))
	}
	each("after the retried flush")
}

// queuedRunEngine packs rows[:1000] into a fresh engine with 16-byte
// signatures and queues all but the last of the next leaf's worth of rows,
// each tagged with marker; the add of the last one (the returned slice's
// last row) fills the run, so the engine flushes it into the tree.
func queuedRunEngine(t *testing.T, rows []packRow, marker string) (*Engine, []packRow) {
	t.Helper()
	e, err := NewEngine(Config{SignatureBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[:1000] {
		if _, err := e.Add(r.point, r.text); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	added := rows[1000 : 1000+e.tree.RTree().Capacity(0)]
	for _, r := range added[:len(added)-1] {
		if _, err := e.Add(r.point, r.text+" "+marker); err != nil {
			t.Fatal(err)
		}
	}
	return e, added
}

// TestFailedSplitFreesItsSibling fails the leaf write of a splitting insert
// in the add that fills a leaf's worth of queued rows — the first insert of
// the flush that writes a block no node held before it (the sibling's),
// found by a fault-free run of the same adds. The insert must free the
// sibling it allocated: right after the failure and after Flush indexes the
// rest, every node the tree counts is reachable from its root, and the
// range query returns each added row once.
func TestFailedSplitFreesItsSibling(t *testing.T) {
	rows, _ := packRows(t, dataset.Restaurants(0.005))
	const marker = "zzqueued"
	dry, added := queuedRunEngine(t, rows, marker)
	last := added[len(added)-1]
	// Node runs come from never-used blocks and nothing was freed, so a
	// block at or past fresh was allocated by the flush.
	fresh := storage.FirstBlock + storage.BlockID(allocatedBlocks(t, dry.idxDisk))
	var writes []storage.BlockID
	setDeviceFault(dry.idxDisk, func(op storage.Op, id storage.BlockID) error {
		if op == storage.OpWrite {
			writes = append(writes, id)
		}
		return nil
	})
	if _, err := dry.Add(last.point, last.text+" "+marker); err != nil {
		t.Fatal(err)
	}
	root, err := dry.tree.RTree().Root()
	if err != nil {
		t.Fatal(err)
	}
	// The inserts end at the root's writes; the splitting one is the first
	// to write a fresh block, its leaf write the first write of an old one.
	fail, from := 0, 0
	for i := 0; i < len(writes) && fail == 0; i++ {
		if writes[i] == root.ID() {
			for i+1 < len(writes) && writes[i+1] == writes[i]+1 {
				i++
			}
			from = i + 1
			continue
		}
		if writes[i] < fresh {
			continue
		}
		for j := from; j < len(writes) && writes[j] != root.ID(); j++ {
			if writes[j] < fresh {
				fail = j + 1
				break
			}
		}
	}
	if fail == 0 {
		t.Fatalf("no splitting insert in %d index writes", len(writes))
	}

	e, _ := queuedRunEngine(t, rows, marker)
	n := 0
	setDeviceFault(e.idxDisk, func(op storage.Op, id storage.BlockID) error {
		if op == storage.OpWrite {
			if n++; n == fail {
				return &storage.FaultError{Kind: storage.KindWriteError, Op: op, Block: id}
			}
		}
		return nil
	})
	if _, err := e.Add(last.point, last.text+" "+marker); err == nil {
		t.Fatal("the add that fills the run flushed through a failing leaf write")
	}
	if err := e.tree.RTree().CheckInvariants(); err != nil {
		t.Fatalf("after the failed split: %v", err)
	}
	setDeviceFault(e.idxDisk, nil)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	checkTree(t, e)
	lo, hi := []float64{-math.MaxFloat64, -math.MaxFloat64}, []float64{math.MaxFloat64, math.MaxFloat64}
	res, _, err := e.WithinArea(lo, hi, marker)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]int)
	for _, r := range res {
		seen[r.Object.ID]++
	}
	for id := uint64(1000); id < uint64(1000+len(added)); id++ {
		if seen[id] != 1 {
			t.Fatalf("row %d answered %d times (%d answers for %d added rows)", id, seen[id], len(res), len(added))
		}
	}
}

// allocatedBlocks returns how many blocks the device under dev holds.
func allocatedBlocks(t *testing.T, dev storage.Device) int {
	t.Helper()
	for dev != nil {
		if d, ok := dev.(interface{ NumBlocks() int }); ok {
			return d.NumBlocks()
		}
		u, ok := dev.(interface{ Under() storage.Device })
		if !ok {
			break
		}
		dev = u.Under()
	}
	t.Fatal("no block count under the index device")
	return 0
}
