package objstore

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

func TestCheckpointOpenInMemory(t *testing.T) {
	dev := storage.NewDisk(128)
	s := New(dev)
	type row struct {
		p    geo.Point
		text string
	}
	rows := []row{
		{geo.NewPoint(1, 2), "alpha beta"},
		{geo.NewPoint(3, 4), strings.Repeat("long ", 60)}, // multi-block
		{geo.NewPoint(5, 6), "short"},
	}
	for _, r := range rows {
		s.Append(r.p, r.text)
	}
	// Checkpoint mid-way to create sealed-block padding, then append more.
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Append(geo.NewPoint(7, 8), "after the seal")
	meta, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	r2, err := Open(dev, meta)
	if err != nil {
		t.Fatal(err)
	}
	if r2.NumObjects() != 4 {
		t.Fatalf("reopened NumObjects = %d, want 4", r2.NumObjects())
	}
	for i := 0; i < 4; i++ {
		a, err := s.GetByID(ID(i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := r2.GetByID(ID(i))
		if err != nil {
			t.Fatal(err)
		}
		if a.Text != b.Text || !a.Point.Equal(b.Point) || a.ID != b.ID {
			t.Errorf("object %d mismatch: %+v vs %+v", i, a, b)
		}
		if s.Ptrs()[i] != r2.Ptrs()[i] {
			t.Errorf("pointer %d mismatch: %d vs %d", i, s.Ptrs()[i], r2.Ptrs()[i])
		}
	}
	if s.AvgBlocksPerObject() != r2.AvgBlocksPerObject() {
		t.Errorf("block stats mismatch: %g vs %g", s.AvgBlocksPerObject(), r2.AvgBlocksPerObject())
	}
	// The reopened store keeps accepting appends.
	_, ptr, _ := r2.Append(geo.NewPoint(9, 9), "appended after reopen")
	if err := r2.Sync(); err != nil {
		t.Fatal(err)
	}
	obj, err := r2.Get(ptr)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Text != "appended after reopen" || obj.ID != 4 {
		t.Errorf("post-reopen append: %+v", obj)
	}
}

func TestCheckpointOpenOnFileDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "objects.db")
	dev, err := storage.CreateFileDisk(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	s := New(dev)
	const n = 200
	for i := 0; i < n; i++ {
		s.Append(geo.NewPoint(float64(i), float64(-i)), fmt.Sprintf("object %d with words w%d", i, i%17))
	}
	meta, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	dev2, err := storage.OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	s2, err := Open(dev2, meta)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumObjects() != n {
		t.Fatalf("NumObjects = %d", s2.NumObjects())
	}
	var seen int
	err = s2.Scan(func(o Object, p Ptr) error {
		if int(o.ID) != seen || o.Point[0] != float64(seen) {
			return fmt.Errorf("row %d corrupted: %+v", seen, o)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Errorf("scanned %d", seen)
	}
}

func TestOpenRejectsGarbageMeta(t *testing.T) {
	dev := storage.NewDisk(128)
	blk := dev.Alloc()
	if err := dev.Write(blk, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dev, blk); err == nil {
		t.Error("garbage meta accepted")
	}
}

func TestCheckpointEmptyStore(t *testing.T) {
	dev := storage.NewDisk(128)
	s := New(dev)
	meta, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(dev, meta)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumObjects() != 0 {
		t.Errorf("NumObjects = %d", r.NumObjects())
	}
}

func TestNulInTextSanitizedForRebuild(t *testing.T) {
	dev := storage.NewDisk(128)
	s := New(dev)
	s.Append(geo.NewPoint(1, 1), "has\x00nul")
	meta, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(dev, meta)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := r.GetByID(0)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Text != "has nul" {
		t.Errorf("text = %q", obj.Text)
	}
}

// TestReopenRebuildsEveryRow: the rebuild streams the object file a block at
// a time, so rows that span blocks, end on a block boundary or follow a
// checkpoint's padding must all come back with the pointers, count and
// block spans the writer had.
func TestReopenRebuildsEveryRow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dev := storage.NewDisk(64)
	s := New(dev)
	var meta storage.BlockID
	for i := 0; i < 400; i++ {
		s.Append(geo.NewPoint(float64(i), 1), strings.Repeat("w", rng.Intn(150)))
		if rng.Intn(25) == 0 {
			var err error
			if meta, err = s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	meta, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(dev, meta)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumObjects() != s.NumObjects() || !slices.Equal(r.Ptrs(), s.Ptrs()) {
		t.Fatalf("reopened %d rows, want %d with the same pointers", r.NumObjects(), s.NumObjects())
	}
	if r.AvgBlocksPerObject() != s.AvgBlocksPerObject() {
		t.Errorf("block spans: %g after reopen, %g written", r.AvgBlocksPerObject(), s.AvgBlocksPerObject())
	}
}
