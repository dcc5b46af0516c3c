package spatialkeyword

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/wal"
)

// crashFS arms the persistence layer's filesystem hooks to simulate a
// process kill: every hooked operation from the n-th one (1-based) onward
// fails, exactly as if the process died there and never came back. The
// returned restore func re-installs the real filesystem.
func crashFS(n int) (restore func()) {
	var ops int
	errCrash := errors.New("simulated crash")
	count := func() error {
		ops++
		if ops >= n {
			return errCrash
		}
		return nil
	}
	origWrite, origRename, origRemove, origCopy, origCreateWAL := fsWriteFile, fsRename, fsRemove, fsCopyFile, fsCreateWAL
	fsWriteFile = func(path string, data []byte, perm os.FileMode) error {
		if err := count(); err != nil {
			return err
		}
		return origWrite(path, data, perm)
	}
	fsRename = func(from, to string) error {
		if err := count(); err != nil {
			return err
		}
		return origRename(from, to)
	}
	fsRemove = func(path string) error {
		if err := count(); err != nil {
			return err
		}
		return origRemove(path)
	}
	fsCopyFile = func(dst, src string) error {
		if err := count(); err != nil {
			return err
		}
		return origCopy(dst, src)
	}
	fsCreateWAL = func(path string, blockSize int) (*storage.Disk, *wal.Log, error) {
		if err := count(); err != nil {
			return nil, nil, err
		}
		return origCreateWAL(path, blockSize)
	}
	return func() {
		fsWriteFile, fsRename, fsRemove, fsCopyFile, fsCreateWAL = origWrite, origRename, origRemove, origCopy, origCreateWAL
	}
}

// engineTexts scans every live object's text (the query-independent content
// fingerprint used to compare an engine against the committed oracle).
func engineTexts(t *testing.T, e *Engine) []string {
	t.Helper()
	var texts []string
	if err := e.Scan(func(o Object) error {
		texts = append(texts, o.Text)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(texts)
	return texts
}

// TestKillDuringSaveAlwaysRecovers is the acceptance loop: 100 iterations
// of mutate → save killed at a rotating filesystem operation → reopen. The
// reopened engine must always be the last successfully committed snapshot —
// readable, query-identical, never torn.
func TestKillDuringSaveAlwaysRecovers(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewDurableEngine(Config{SignatureBytes: 16}, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Committed baseline: a handful of objects and one clean save.
	var oracle []string
	for i := 0; i < 8; i++ {
		text := fmt.Sprintf("base %d poi", i)
		if _, err := eng.Add([]float64{float64(i), float64(i)}, text); err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, text)
	}
	sort.Strings(oracle)
	if err := eng.Save(); err != nil {
		t.Fatal(err)
	}

	// A full save touches at most 4 commit-critical hooked ops (the index
	// snapshot copy, 2 manifest writes, 1 rename) plus up to 2 best-effort
	// prunes (generation G-2's index copy and manifest). Rotating the kill
	// point over 1..6 exercises every window, including "crashed after the
	// commit point".
	const maxOps = 6
	for iter := 0; iter < 100; iter++ {
		text := fmt.Sprintf("iter %d poi", iter)
		if _, err := eng.Add([]float64{float64(iter % 13), float64(iter % 7)}, text); err != nil {
			t.Fatal(err)
		}
		restore := crashFS(iter%maxOps + 1)
		saveErr := eng.Save()
		restore()
		// Simulated process death: drop the files without another save.
		if err := eng.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", iter, err)
		}
		if saveErr == nil {
			// Crash landed after the commit point; the new object is durable.
			oracle = append(oracle, text)
			sort.Strings(oracle)
		}
		eng, err = OpenEngine(dir)
		if err != nil {
			t.Fatalf("iter %d (save err %v): reopen after crash: %v", iter, saveErr, err)
		}
		if got := engineTexts(t, eng); !reflect.DeepEqual(got, oracle) {
			t.Fatalf("iter %d (save err %v): recovered %d objects, committed %d\ngot:  %v\nwant: %v",
				iter, saveErr, len(got), len(oracle), got, oracle)
		}
		// The index must agree with the object file, not just the scan:
		// every committed object is reachable by query.
		res, err := eng.TopK(len(oracle)+1, []float64{5, 5}, "poi")
		if err != nil {
			t.Fatalf("iter %d: query after recovery: %v", iter, err)
		}
		if len(res) != len(oracle) {
			t.Fatalf("iter %d: query found %d objects, committed %d", iter, len(res), len(oracle))
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSaveDeviceFaultLeavesPreviousGeneration drives the same recovery
// guarantee from below the filesystem: a device-level write fault during
// the checkpoint fails the save, and reopening yields the previous
// generation.
func TestSaveDeviceFaultLeavesPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewDurableEngine(Config{SignatureBytes: 16}, dir)
	if err != nil {
		t.Fatal(err)
	}
	addFigure1(t, eng)
	if err := eng.Save(); err != nil {
		t.Fatal(err)
	}
	oracle := engineTexts(t, eng)
	if _, err := eng.Add([]float64{1, 1}, "doomed addition"); err != nil {
		t.Fatal(err)
	}
	if !eng.InjectFault(func(op storage.Op, id storage.BlockID) error {
		if op == storage.OpWrite {
			return &storage.FaultError{Kind: storage.KindWriteError, Op: op, Block: id}
		}
		return nil
	}) {
		t.Fatal("InjectFault refused")
	}
	err = eng.Save()
	if err == nil {
		t.Fatal("save over a failing device succeeded")
	}
	if !storage.IsIOFault(err) {
		t.Fatalf("save error not typed: %v", err)
	}
	eng.InjectFault(nil)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenEngine(dir)
	if err != nil {
		t.Fatalf("reopen after failed save: %v", err)
	}
	defer reopened.Close()
	if got := engineTexts(t, reopened); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("previous generation lost:\ngot:  %v\nwant: %v", got, oracle)
	}
}

// TestOpenEngineAtPinsOldGeneration checks the generation pinning the
// sharded manifest depends on: after a second save, the previous
// generation is still openable by number.
func TestOpenEngineAtPinsOldGeneration(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewDurableEngine(Config{SignatureBytes: 16}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Add([]float64{1, 1}, "first generation"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(); err != nil {
		t.Fatal(err)
	}
	gen1 := eng.Generation()
	if _, err := eng.Add([]float64{2, 2}, "second generation"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(); err != nil {
		t.Fatal(err)
	}
	if eng.Generation() != gen1+1 {
		t.Fatalf("generation = %d after second save, want %d", eng.Generation(), gen1+1)
	}
	eng.Close()

	old, err := OpenEngineAt(dir, gen1)
	if err != nil {
		t.Fatalf("open pinned generation: %v", err)
	}
	if got := engineTexts(t, old); len(got) != 1 || got[0] != "first generation" {
		t.Fatalf("pinned generation content: %v", got)
	}
	old.Close()

	cur, err := OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if got := engineTexts(t, cur); len(got) != 2 {
		t.Fatalf("current generation content: %v", got)
	}
}
