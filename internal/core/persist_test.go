package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
)

// TestDurableIndexEndToEnd builds an IR²-Tree over a file-backed object
// store, checkpoints everything, closes both files, reopens them, and
// verifies queries are identical — the full durability story.
func TestDurableIndexEndToEnd(t *testing.T) {
	for _, multilevel := range []bool{false, true} {
		name := "IR2"
		if multilevel {
			name = "MIR2"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			objPath := filepath.Join(dir, "objects.db")
			idxPath := filepath.Join(dir, "index.db")

			objDev, err := storage.CreateFileDisk(objPath, 4096)
			if err != nil {
				t.Fatal(err)
			}
			idxDev, err := storage.CreateFileDisk(idxPath, 4096)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(101))
			rows := randomRows(rng, 250)
			store := objstore.New(objDev)
			for _, r := range rows {
				store.Append(geo.NewPoint(r.lat, r.lon), r.text)
			}
			opts := Options{
				LeafSignature: sigfile.Config{LengthBytes: 8, BitsPerWord: 4},
				MaxEntries:    8,
			}
			if multilevel {
				opts.Multilevel = true
				opts.AvgWordsPerObject = 4
				opts.VocabSize = 64
			}
			storeMeta, err := store.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			tree, err := New(idxDev, store, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.Build(); err != nil {
				t.Fatal(err)
			}
			treeState, err := tree.Checkpoint(storage.NilBlock)
			if err != nil {
				t.Fatal(err)
			}

			q := geo.NewPoint(400, 400)
			want, _, err := tree.TopK(10, q, []string{"pool"})
			if err != nil {
				t.Fatal(err)
			}

			if err := objDev.Close(); err != nil {
				t.Fatal(err)
			}
			if err := idxDev.Close(); err != nil {
				t.Fatal(err)
			}

			// "Restart": reopen from files only.
			objDev2, err := storage.OpenFileDisk(objPath)
			if err != nil {
				t.Fatal(err)
			}
			defer objDev2.Close()
			idxDev2, err := storage.OpenFileDisk(idxPath)
			if err != nil {
				t.Fatal(err)
			}
			defer idxDev2.Close()

			store2, err := objstore.Open(objDev2, storeMeta)
			if err != nil {
				t.Fatal(err)
			}
			tree2, err := Open(idxDev2, store2, opts, treeState)
			if err != nil {
				t.Fatal(err)
			}
			if tree2.RTree().Len() != len(rows) {
				t.Fatalf("Len = %d", tree2.RTree().Len())
			}
			got, _, err := tree2.TopK(10, q, []string{"pool"})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(resultIDs(got)) != fmt.Sprint(resultIDs(want)) {
				t.Errorf("results changed across restart: %v vs %v", resultIDs(got), resultIDs(want))
			}
			if err := tree2.RTree().CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			// The reopened index accepts updates.
			_, ptr, _ := store2.Append(geo.NewPoint(400, 400), "durable pool palace")
			if err := store2.Sync(); err != nil {
				t.Fatal(err)
			}
			obj, err := store2.Get(ptr)
			if err != nil {
				t.Fatal(err)
			}
			if err := tree2.Insert(obj, ptr); err != nil {
				t.Fatal(err)
			}
			top, _, err := tree2.TopK(1, q, []string{"pool", "palace"})
			if err != nil || len(top) != 1 || top[0].Object.Text != "durable pool palace" {
				t.Errorf("post-reopen insert not queryable: %v %v", top, err)
			}
		})
	}
}

func TestOpenWrongOptionsRejected(t *testing.T) {
	dev := storage.NewDisk(4096)
	store := objstore.New(storage.NewDisk(4096))
	store.Append(geo.NewPoint(1, 1), "alpha")
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	opts := Options{LeafSignature: sigfile.Config{LengthBytes: 16, BitsPerWord: 4}, MaxEntries: 8}
	tree, err := New(dev, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	state, err := tree.Checkpoint(storage.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	// A different signature length changes the payload fingerprint.
	bad := opts
	bad.LeafSignature.LengthBytes = 32
	if _, err := Open(dev, store, bad, state); err == nil {
		t.Error("signature length mismatch accepted")
	}
	// Correct options succeed.
	if _, err := Open(dev, store, opts, state); err != nil {
		t.Errorf("valid reopen failed: %v", err)
	}
}
