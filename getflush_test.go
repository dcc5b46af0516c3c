package spatialkeyword

import (
	"testing"
)

// TestGetFlushedDoesNoWriteIO is the regression test for Get's flush
// behavior: reading an object that is already flushed must not trigger a
// flush — zero write I/O on either device — even while other objects are
// pending. Only a Get that could hit the unflushed range may flush.
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
	// Two pending objects that Get on a flushed ID must not disturb.
	var pendingID uint64
	for i := 0; i < 2; i++ {
		id, err := eng.Add([]float64{10, float64(i)}, "pending poi")
		if err != nil {
			t.Fatal(err)
		}
		pendingID = id
	}

	objBefore, idxBefore := eng.objDisk.Stats(), eng.idxDisk.Stats()
	got, err := eng.Get(0)
	if err != nil {
		t.Fatalf("get flushed id: %v", err)
	}
	if got.Text != "flushed poi" {
		t.Fatalf("got %q", got.Text)
	}
	obj := eng.objDisk.Stats().Sub(objBefore)
	idx := eng.idxDisk.Stats().Sub(idxBefore)
	objW, idxW := obj.RandomWrites+obj.SequentialWrites, idx.RandomWrites+idx.SequentialWrites
	if objW != 0 || idxW != 0 {
		t.Fatalf("Get on a flushed id performed write I/O: %d object writes, %d index writes", objW, idxW)
	}
	if len(eng.pending) != 2 {
		t.Fatalf("Get on a flushed id flushed the buffer: %d pending, want 2", len(eng.pending))
	}

	// Get inside the pending range still flushes and succeeds.
	got, err = eng.Get(pendingID)
	if err != nil {
		t.Fatalf("get pending id: %v", err)
	}
	if got.Text != "pending poi" {
		t.Fatalf("got %q", got.Text)
	}
	if len(eng.pending) != 0 {
		t.Fatalf("Get on a pending id left %d pending", len(eng.pending))
	}
}
