package spatialkeyword

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestDurableEngineSaveOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewDurableEngine(Config{SignatureBytes: 16}, dir)
	if err != nil {
		t.Fatal(err)
	}
	addFigure1(t, eng)
	// Delete one hotel so the deleted set is exercised too.
	if err := eng.Delete(3); err != nil { // Hotel D
		t.Fatal(err)
	}
	want, err := eng.TopK(3, []float64{30.5, 100.0}, "pool")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got, err := reopened.TopK(3, []float64{30.5, 100.0}, "pool")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("results: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Object.ID != want[i].Object.ID || got[i].Dist != want[i].Dist {
			t.Fatalf("rank %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	// Deleted object stays deleted.
	if _, err := reopened.Get(3); !errors.Is(err, ErrDeleted) {
		t.Errorf("deleted object resurrected: %v", err)
	}
	s := reopened.Stats()
	if s.Objects != 7 {
		t.Errorf("live objects = %d, want 7", s.Objects)
	}
	if s.Vocabulary == 0 {
		t.Error("vocabulary not rebuilt")
	}
	// Ranked queries (which need the vocabulary) still work.
	ranked, err := reopened.TopKRanked(3, []float64{30.5, 100.0}, "internet", "pool")
	if err != nil || len(ranked) == 0 {
		t.Errorf("ranked after reopen: %v %v", ranked, err)
	}
	// New writes work and can be saved again.
	id, err := reopened.Add([]float64{30, 100}, "reopened resort pool")
	if err != nil {
		t.Fatal(err)
	}
	top, err := reopened.TopK(1, []float64{30.5, 100.0}, "reopened")
	if err != nil || len(top) != 1 || top[0].Object.ID != id {
		t.Fatalf("post-reopen add: %v %v", top, err)
	}
	if err := reopened.Save(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableEngineSecondReopen(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewDurableEngine(Config{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(141))
	for i := 0; i < 300; i++ {
		text := fmt.Sprintf("shop %d %s", i, []string{"coffee", "tea", "books"}[rng.Intn(3)])
		if _, err := eng.Add([]float64{rng.Float64() * 100, rng.Float64() * 100}, text); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Save(); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	// Open, mutate, save, open again.
	e2, err := OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Add([]float64{50, 50}, "generation two vinyl"); err != nil {
		t.Fatal(err)
	}
	if err := e2.Save(); err != nil {
		t.Fatal(err)
	}
	e2.Close()

	e3, err := OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if e3.Stats().Objects != 301 {
		t.Errorf("objects = %d", e3.Stats().Objects)
	}
	top, err := e3.TopK(1, []float64{50, 50}, "vinyl")
	if err != nil || len(top) != 1 || !strings.Contains(top[0].Object.Text, "generation two") {
		t.Errorf("second-generation object lost: %v %v", top, err)
	}
}

func TestSaveOnMemoryEngineFails(t *testing.T) {
	eng, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(); !errors.Is(err, ErrNotDurable) {
		t.Errorf("Save on memory engine: %v", err)
	}
	if eng.objFile != nil || eng.idxFile != nil {
		t.Errorf("memory engine owns files: %v, %v", eng.objFile, eng.idxFile)
	}
	if err := eng.Close(); err != nil {
		t.Errorf("Close on memory engine: %v", err)
	}
}

// TestNewEngineRejectsBadBlockSize: a block size the device cannot take is
// an error from NewEngine, not a panic from the device below it.
func TestNewEngineRejectsBadBlockSize(t *testing.T) {
	for _, bs := range []int{-1, 1, 16, 31, 1<<20 + 1} {
		if _, err := NewEngine(Config{BlockSize: bs}); err == nil {
			t.Errorf("block size %d accepted", bs)
		}
	}
}

func TestOpenEngineErrors(t *testing.T) {
	if _, err := OpenEngine(t.TempDir()); err == nil {
		t.Error("open of empty dir succeeded")
	}
	// Corrupt manifest.
	dir := t.TempDir()
	eng, err := NewDurableEngine(Config{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Add([]float64{1, 1}, "x"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if err := writeGarbage(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEngine(dir); err == nil {
		t.Error("garbage manifest accepted")
	}
}

func writeGarbage(path string) error {
	return os.WriteFile(path, []byte("{not json"), 0o644)
}

// TestReopenedEngineHonoursNodeCacheSize: Config.NodeCacheSize travels in
// the manifest and must reach the reopened tree — a two-node cache evicts
// under a scan that touches every node (the 1024-node default would not),
// and a disabled cache stays disabled.
func TestReopenedEngineHonoursNodeCacheSize(t *testing.T) {
	reopen := func(size int) *Engine {
		t.Helper()
		dir := t.TempDir()
		eng, err := NewDurableEngine(Config{SignatureBytes: 16, NodeCacheSize: size}, dir)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 2000; i++ {
			if _, err := eng.Add([]float64{rng.Float64() * 100, rng.Float64() * 100}, fmt.Sprintf("poi w%d", i%7)); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Save(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenEngine(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { reopened.Close() }) //nolint:errcheck // test teardown
		for pass := 0; pass < 2; pass++ {
			if _, err := reopened.TopK(2000, []float64{50, 50}, "poi"); err != nil {
				t.Fatal(err)
			}
		}
		return reopened
	}
	if st := reopen(2).NodeCacheStats(); st.Evictions == 0 {
		t.Errorf("NodeCacheSize 2 after reopen: %+v, want evictions (the size was dropped for the default)", st)
	}
	if st := reopen(0).NodeCacheStats(); st.Evictions != 0 || st.Hits == 0 {
		t.Errorf("default cache after reopen: %+v, want hits and no evictions", st)
	}
	if st := reopen(-1).NodeCacheStats(); st != (NodeCacheStats{}) {
		t.Errorf("disabled cache after reopen: %+v, want all zero", st)
	}
}

// TestSavePrunesEveryOldGeneration: a Save removes every generation older
// than the one before it, not only the one two back. The first removal of a
// file that exists fails, which leaves one of generation 1's files behind;
// the Saves after it must leave only the files of the last two generations:
// each one's index copy, manifest and log, and no objects.<G>.db, since a
// generation's object blocks are a prefix of objects.db.
func TestSavePrunesEveryOldGeneration(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewDurableEngine(Config{SignatureBytes: 16, WAL: true}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	orig := fsRemove
	defer func() { fsRemove = orig }()
	failed := false
	fsRemove = func(path string) error {
		if _, err := os.Stat(path); err == nil && !failed {
			failed = true
			return errors.New("injected remove failure")
		}
		return orig(path)
	}
	for i := 0; i < 5; i++ {
		if _, err := eng.Add([]float64{float64(i), 2}, "pool spa"); err != nil {
			t.Fatal(err)
		}
		if err := eng.Save(); err != nil {
			t.Fatal(err)
		}
	}
	if !failed {
		t.Fatal("no prune ran")
	}
	last := eng.DurabilityStats().Generation
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	perGen := regexp.MustCompile(`^(objects|index|manifest|wal)\.([0-9]+)\.(db|json)$`)
	for _, ent := range entries {
		m := perGen.FindStringSubmatch(ent.Name())
		if m == nil {
			continue
		}
		if m[1] == "objects" {
			t.Errorf("Save wrote %s", ent.Name())
		}
		if g, _ := strconv.ParseUint(m[2], 10, 64); g+1 < last {
			t.Errorf("%s is still on disk after the Save of generation %d", ent.Name(), last)
		}
	}
	for _, g := range []uint64{last - 1, last} {
		for _, name := range []string{genIndexName(g), genManifestName(g), walName(g)} {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Errorf("generation %d: %v", g, err)
			}
		}
	}
}

// TestSaveSyncsManifestAndDirectory records the file operations of a Save
// through the persistence hooks, in order: the generation's manifest is
// written and fsynced, then manifest.json.tmp, then the directory — so the
// names of the generation's files are durable before anything points at
// them — then the tmp is renamed over manifest.json and the directory
// fsynced again, and once more after the prune. Otherwise a power loss can
// leave a committed manifest with torn bytes, one that names a generation
// file whose entry was lost, lose the rename and with it the log rotation,
// or bring back a pruned generation that no later Save removes.
func TestSaveSyncsManifestAndDirectory(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewDurableEngine(Config{SignatureBytes: 16}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Add([]float64{1, 2}, "pool spa"); err != nil {
		t.Fatal(err)
	}
	var ops []string
	origWrite, origRename, origSync := fsWriteFile, fsRename, fsSync
	defer func() { fsWriteFile, fsRename, fsSync = origWrite, origRename, origSync }()
	fsWriteFile = func(path string, data []byte, perm os.FileMode) error {
		ops = append(ops, "write "+filepath.Base(path))
		return origWrite(path, data, perm)
	}
	fsRename = func(from, to string) error {
		ops = append(ops, "rename "+filepath.Base(from)+" "+filepath.Base(to))
		return origRename(from, to)
	}
	fsSync = func(path string) error {
		name := filepath.Base(path)
		if path == dir {
			name = "dir"
		}
		ops = append(ops, "sync "+name)
		return origSync(path)
	}
	if err := eng.Save(); err != nil {
		t.Fatal(err)
	}
	tmp, gen := manifestName+".tmp", genManifestName(1)
	want := []string{
		"write " + gen, "sync " + gen, // the generation's manifest is durable,
		"write " + tmp, "sync " + tmp, // then the commit's,
		"sync dir",                                       // then every name the commit points at,
		"rename " + tmp + " " + manifestName, "sync dir", // then the commit,
		"sync dir", // then the prune.
	}
	if !slices.Equal(ops, want) {
		t.Fatalf("Save's manifest operations\n got %q\nwant %q", ops, want)
	}
}
