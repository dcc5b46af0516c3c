package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

func TestIsShardedDir(t *testing.T) {
	dir := t.TempDir()
	if IsShardedDir(dir) {
		t.Error("empty dir reported as sharded")
	}
	if err := os.WriteFile(filepath.Join(dir, shardManifestName), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !IsShardedDir(dir) {
		t.Error("dir with shards.json not reported as sharded")
	}
}

func TestDurableRoundtrip(t *testing.T) {
	rows, stats, bounds := loadDataset(t, dataset.Restaurants(0.0005))
	dir := t.TempDir()
	cfg := spatialkeyword.Config{SignatureBytes: 16}

	s, err := NewDurable(cfg, dir, Options{Shards: 3, Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, rows)
	for id := uint64(0); id < uint64(len(rows)); id += 5 {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	kws := keywordSets(stats, 1, 2, 7)[0]
	p := queryPoints(rows, 1, 3)[0]
	wantTopK, err := s.TopK(8, p, kws...)
	if err != nil {
		t.Fatal(err)
	}
	wantRanked, err := s.TopKRanked(8, p, kws...)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := s.Stats()
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !IsShardedDir(dir) {
		t.Fatal("saved dir not recognized as sharded")
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumShards() != 3 {
		t.Fatalf("reopened NumShards = %d", r.NumShards())
	}
	if _, ok := r.part.(*GridPartitioner); !ok {
		t.Fatalf("reopened partitioner = %T", r.part)
	}
	gotStats := r.Stats()
	if gotStats.Objects != wantStats.Objects || gotStats.Vocabulary != wantStats.Vocabulary {
		t.Errorf("reopened stats %+v, want %+v", gotStats, wantStats)
	}

	gotTopK, err := r.TopK(8, p, kws...)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "reopened TopK", wantTopK, gotTopK)
	gotRanked, err := r.TopKRanked(8, p, kws...)
	if err != nil {
		t.Fatal(err)
	}
	sameRanked(t, "reopened TopKRanked", wantRanked, gotRanked)

	// Deletions survived, and new writes after reopen keep global IDs going.
	if _, err := r.Get(0); !errors.Is(err, spatialkeyword.ErrDeleted) {
		t.Errorf("Get(0) after reopen = %v, want deleted", err)
	}
	id, err := r.Add([]float64{rows[0].Point[0], rows[0].Point[1]}, "fresh reopened row")
	if err != nil {
		t.Fatal(err)
	}
	if id != uint64(len(rows)) {
		t.Errorf("post-reopen Add id = %d, want %d", id, len(rows))
	}
	obj, err := r.Get(id)
	if err != nil || obj.Text != "fresh reopened row" {
		t.Errorf("Get(new) = %+v, %v", obj, err)
	}
	if err := r.Save(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err == nil {
		t.Error("Open on empty dir should fail")
	}
	if err := os.WriteFile(filepath.Join(dir, shardManifestName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("Open on corrupt manifest should fail")
	}
}

func TestOpenRejectsInconsistentAssignment(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurable(spatialkeyword.Config{SignatureBytes: 8}, dir, Options{
		Shards: 2,
		Bounds: geo.NewRect(geo.NewPoint(0, 0), geo.NewPoint(10, 10)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add([]float64{1, 1}, "alpha beta"); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rewrite := func(assign []int) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, shardManifestName))
		if err != nil {
			t.Fatal(err)
		}
		var m shardManifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		m.Assign = assign
		data, err = json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, shardManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// An extra object claimed on an out-of-range shard.
	rewrite([]int{0, 9})
	if _, err := Open(dir); err == nil {
		t.Error("Open should reject out-of-range shard assignment")
	}
	// Count mismatch: the object claimed on a shard that holds none.
	rewrite([]int{1})
	if _, err := Open(dir); err == nil {
		t.Error("Open should reject assignment disagreeing with shard contents")
	}
}

// TestOneAtATimeAddsPackObjectFile: every sharded Add syncs its shard's
// object file, and Sync rewrites the open block rather than sealing it, so
// rows added one at a time pack back to back as a bulk load's would. Each
// shard's objects.db holds its rows' bytes rounded up to blocks plus at most
// two, beside the device header block and the one checkpoint's metadata
// block — not a block per row.
func TestOneAtATimeAddsPackObjectFile(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurable(spatialkeyword.Config{SignatureBytes: 16}, dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const adds = 2000
	for i := 0; i < adds; i++ {
		text := fmt.Sprintf("object %04d %s", i, strings.Repeat("word ", 14))
		if _, err := s.Add([]float64{float64(i % 37), float64(i / 37)}, text); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	const bs = storage.DefaultBlockSize
	for i, sh := range s.shards {
		// A row is "id \t dim \t x \t y \t text \n"; the coordinates are
		// integers, which the row writes without a fraction.
		var rowBytes int
		if err := sh.eng.Scan(func(o spatialkeyword.Object) error {
			rowBytes += len(fmt.Sprintf("%d\t2\t%g\t%g\t%s\n", o.ID, o.Point[0], o.Point[1], o.Text))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(shardDir(dir, false, i), "objects.db"))
		if err != nil {
			t.Fatal(err)
		}
		data := int(fi.Size()/bs) - 2 // the device header and the checkpoint's metadata
		if limit := (rowBytes+bs-1)/bs + 2; data > limit {
			t.Errorf("shard %d: %d rows (%d bytes) over %d data blocks, want at most %d",
				i, sh.eng.NumObjects(), rowBytes, data, limit)
		}
	}
}
