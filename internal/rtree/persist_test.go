package rtree

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

func TestCheckpointAndOpenInMemory(t *testing.T) {
	disk := storage.NewDisk(4096)
	cfg := Config{MaxEntries: 8}
	tree, err := New(disk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	pts := make([]geo.Point, 300)
	for i := range pts {
		pts[i] = geo.NewPoint(rng.Float64()*100, rng.Float64()*100)
		if err := tree.Insert(uint64(i), geo.PointRect(pts[i]), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	state, err := tree.Checkpoint(storage.NilBlock)
	if err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(disk, cfg, state)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 300 || reopened.Height() != tree.Height() || reopened.NumNodes() != tree.NumNodes() {
		t.Fatalf("state mismatch: len=%d height=%d nodes=%d", reopened.Len(), reopened.Height(), reopened.NumNodes())
	}
	if err := reopened.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Queries on the reopened tree agree with the original.
	q := geo.NewPoint(50, 50)
	itA := tree.NearestNeighbors(q, nil)
	itB := reopened.NearestNeighbors(q, nil)
	for i := 0; i < 300; i++ {
		a, da, okA, errA := itA.Next()
		b, db, okB, errB := itB.Next()
		if errA != nil || errB != nil || !okA || !okB || a != b || da != db {
			t.Fatalf("rank %d: (%d,%g,%v,%v) vs (%d,%g,%v,%v)", i, a, da, okA, errA, b, db, okB, errB)
		}
	}
	// Mutations keep working; re-checkpoint to the same block.
	if err := reopened.Insert(999, geo.PointRect(geo.NewPoint(1, 1)), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.Checkpoint(state); err != nil {
		t.Fatal(err)
	}
	again, err := Open(disk, cfg, state)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != 301 {
		t.Errorf("Len after re-checkpoint = %d", again.Len())
	}
}

func TestOpenRejectsMismatchedConfig(t *testing.T) {
	disk := storage.NewDisk(4096)
	tree, err := New(disk, Config{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(1, geo.PointRect(geo.NewPoint(0, 0)), nil, nil); err != nil {
		t.Fatal(err)
	}
	state, err := tree.Checkpoint(storage.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(disk, Config{MaxEntries: 16}, state); err == nil {
		t.Error("capacity mismatch accepted")
	}
	if _, err := Open(disk, Config{MaxEntries: 8, Scheme: orScheme{n: 4}}, state); err == nil {
		t.Error("scheme mismatch accepted")
	}
	// A non-state block is rejected.
	dataBlock := disk.Alloc()
	if err := disk.Write(dataBlock, []byte("not a state block")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(disk, Config{MaxEntries: 8}, dataBlock); err == nil {
		t.Error("garbage state block accepted")
	}
}

// TestDurableTreeOnFileDisk is the end-to-end persistence test: build on a
// file, close the process's handles, reopen from disk, and query.
func TestDurableTreeOnFileDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	cfg := Config{MaxEntries: 8}

	disk, err := storage.CreateFileDisk(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(disk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(92))
	pts := make([]geo.Point, 500)
	for i := range pts {
		pts[i] = geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
		if err := tree.Insert(uint64(i), geo.PointRect(pts[i]), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	state, err := tree.Checkpoint(storage.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := nnOrder(t, tree, geo.NewPoint(500, 500), 20)
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	// "New process": reopen everything from the file.
	disk2, err := storage.OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	tree2, err := Open(disk2, cfg, state)
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Len() != 500 {
		t.Fatalf("Len = %d", tree2.Len())
	}
	if err := tree2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	gotOrder := nnOrder(t, tree2, geo.NewPoint(500, 500), 20)
	if fmt.Sprint(gotOrder) != fmt.Sprint(wantOrder) {
		t.Errorf("NN order changed across restart: %v vs %v", gotOrder, wantOrder)
	}
	// Continue mutating the reopened tree.
	for i := 500; i < 600; i++ {
		p := geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
		if err := tree2.Insert(uint64(i), geo.PointRect(p), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func nnOrder(t *testing.T, tree *Tree, q geo.Point, n int) []uint64 {
	t.Helper()
	it := tree.NearestNeighbors(q, nil)
	out := make([]uint64, 0, n)
	for len(out) < n {
		ref, _, ok, err := it.Next()
		if err != nil || !ok {
			t.Fatalf("nnOrder: ok=%v err=%v", ok, err)
		}
		out = append(out, ref)
	}
	return out
}
