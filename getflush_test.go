package spatialkeyword

import (
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
	if len(eng.run.rows) != 2 {
		t.Fatalf("Get on a flushed id indexed the run: %d queued, want 2", len(eng.run.rows))
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
	if len(eng.run.rows) != 2 {
		t.Fatalf("Get on a queued id left %d queued, want 2", len(eng.run.rows))
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
