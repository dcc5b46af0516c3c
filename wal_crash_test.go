package spatialkeyword

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/wal"
)

// walConfig is the WAL-enabled configuration the crash tests use.
func walConfig() Config {
	return Config{SignatureBytes: 16, WAL: true}
}

// liveTexts is engineTexts minus deleted objects (Scan yields every row
// ever appended; replayed deletions must not come back as live).
func liveTexts(t *testing.T, e *Engine) []string {
	t.Helper()
	var texts []string
	if err := e.Scan(func(o Object) error {
		if !isDeleted(e, o.ID) {
			texts = append(texts, o.Text)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(texts)
	return texts
}

// TestWALRecoversWithoutSave is the WAL's reason to exist: acknowledged
// mutations survive a crash even though no Save ran after them.
func TestWALRecoversWithoutSave(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewDurableEngine(walConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Generation() != 1 {
		t.Fatalf("WAL engine starts at generation %d, want 1", eng.Generation())
	}
	var oracle []string
	for i := 0; i < 10; i++ {
		text := fmt.Sprintf("unsaved %d poi", i)
		if _, err := eng.Add([]float64{float64(i), float64(i)}, text); err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, text)
	}
	if err := eng.Delete(3); err != nil {
		t.Fatal(err)
	}
	oracle = append(oracle[:3], oracle[4:]...)
	sort.Strings(oracle)
	// Simulated crash: never Save, just drop the files.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenEngine(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	info := reopened.WALInfo()
	if !info.Enabled {
		t.Fatal("reopened engine has no WAL")
	}
	if info.ReplayedRecords != 11 {
		t.Fatalf("replayed %d records, want 11 (10 adds + 1 delete)", info.ReplayedRecords)
	}
	if info.TornTails != 0 {
		t.Fatalf("clean log reported %d torn tails", info.TornTails)
	}
	if got := liveTexts(t, reopened); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("recovered texts:\ngot:  %v\nwant: %v", got, oracle)
	}
	res, err := reopened.TopK(20, []float64{5, 5}, "poi")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(oracle) {
		t.Fatalf("query found %d objects, want %d", len(res), len(oracle))
	}
}

// TestWALReplayDeterministic opens the same crashed directory twice and
// requires byte-identical logs and identical state and query results — the
// headline replay-determinism guarantee.
func TestWALReplayDeterministic(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewDurableEngine(walConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := eng.Add([]float64{float64(i % 7), float64(i % 5)}, fmt.Sprintf("det %d poi", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint64{2, 9, 17} {
		if err := eng.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName(1))

	type snapshot struct {
		texts   []string
		results []Result
		replay  []wal.Record
		raw     []byte
	}
	open := func() snapshot {
		e, err := OpenEngine(dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		res, err := e.TopK(25, []float64{3, 2}, "poi")
		if err != nil {
			t.Fatal(err)
		}
		s := snapshot{texts: liveTexts(t, e), results: res, replay: e.WALReplayRecords()}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		s.raw = raw
		return s
	}
	s1, s2 := open(), open()
	if !reflect.DeepEqual(s1.texts, s2.texts) {
		t.Fatalf("replays recovered different objects:\n%v\n%v", s1.texts, s2.texts)
	}
	if !reflect.DeepEqual(s1.results, s2.results) {
		t.Fatal("replays answered the same query differently")
	}
	if !reflect.DeepEqual(s1.replay, s2.replay) {
		t.Fatal("replays reported different WAL records")
	}
	if !reflect.DeepEqual(s1.raw, s2.raw) {
		t.Fatal("log bytes changed across opens of a clean log")
	}
}

// TestWALTornTailRecovered corrupts the last record on disk and checks that
// recovery reports exactly one torn tail, keeps every earlier record, and
// physically truncates so the next open is clean.
func TestWALTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewDurableEngine(walConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	var oracle []string
	for i := 0; i < 6; i++ {
		text := fmt.Sprintf("torn %d poi", i)
		if _, err := eng.Add([]float64{float64(i), 0}, text); err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, text)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip the last data byte of the log — the tail of record 6's payload —
	// so its CRC no longer matches: a torn final append.
	walPath := filepath.Join(dir, walName(1))
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	last := len(raw) - 1
	for last >= 0 && raw[last] == 0 {
		last--
	}
	if last < 0 {
		t.Fatal("log file is all zeros")
	}
	raw[last] ^= 0x01
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	oracle = oracle[:5]
	sort.Strings(oracle)
	first, err := OpenEngine(dir)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	info := first.WALInfo()
	if info.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1", info.TornTails)
	}
	if info.ReplayedRecords != 5 {
		t.Fatalf("replayed %d records, want 5", info.ReplayedRecords)
	}
	if got := engineTexts(t, first); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("recovered texts:\ngot:  %v\nwant: %v", got, oracle)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	// The torn tail was physically truncated: a second open is clean.
	second, err := OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	info = second.WALInfo()
	if info.TornTails != 0 {
		t.Fatalf("second open still torn (%d)", info.TornTails)
	}
	if info.ReplayedRecords != 5 {
		t.Fatalf("second open replayed %d records, want 5", info.ReplayedRecords)
	}
}

// TestKillDuringSaveWithWALLosesNothing re-runs the kill-during-save
// acceptance loop with a WAL. The oracle is strictly stronger than the
// checkpoint-only version: every acknowledged mutation survives whether or
// not the interrupted Save committed.
func TestKillDuringSaveWithWALLosesNothing(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewDurableEngine(walConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	var oracle []string
	// A WAL save touches up to 5 commit-critical hooked ops (the index
	// snapshot copy, generation manifest, staged WAL create, tmp manifest
	// write, rename) plus up to 3 best-effort prunes (generation G-2's index
	// copy, manifest and log); rotating 1..8 covers every window including
	// "crashed after the commit point".
	const maxOps = 8
	for iter := 0; iter < 100; iter++ {
		text := fmt.Sprintf("iter %d poi", iter)
		if _, err := eng.Add([]float64{float64(iter % 13), float64(iter % 7)}, text); err != nil {
			t.Fatalf("iter %d: add: %v", iter, err)
		}
		oracle = append(oracle, text)
		restore := crashFS(iter%maxOps + 1)
		saveErr := eng.Save()
		restore()
		if err := eng.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", iter, err)
		}
		eng, err = OpenEngine(dir)
		if err != nil {
			t.Fatalf("iter %d (save err %v): reopen: %v", iter, saveErr, err)
		}
		want := append([]string(nil), oracle...)
		sort.Strings(want)
		if got := engineTexts(t, eng); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d (save err %v): recovered %d objects, acknowledged %d\ngot:  %v\nwant: %v",
				iter, saveErr, len(got), len(want), got, want)
		}
		res, err := eng.TopK(len(want)+1, []float64{5, 5}, "poi")
		if err != nil {
			t.Fatalf("iter %d: query after recovery: %v", iter, err)
		}
		if len(res) != len(want) {
			t.Fatalf("iter %d: query found %d objects, acknowledged %d", iter, len(res), len(want))
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestKillDuringAppendAlwaysRecovers kills the write path below the log: the
// WAL device starts failing writes at a rotating operation, mid-append. A
// reopen must recover exactly the acknowledged mutations — never an
// unacknowledged one, never fewer.
func TestKillDuringAppendAlwaysRecovers(t *testing.T) {
	startGoroutines := runtime.NumGoroutine()
	dir := t.TempDir()
	eng, err := NewDurableEngine(walConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	var oracle []string
	for iter := 0; iter < 100; iter++ {
		n := iter%4 + 1
		var writes int
		if !setDeviceFault(eng.walFile, func(op storage.Op, id storage.BlockID) error {
			if op != storage.OpWrite {
				return nil
			}
			writes++
			if writes >= n {
				return &storage.FaultError{Kind: storage.KindWriteError, Op: op, Block: id}
			}
			return nil
		}) {
			t.Fatal("WAL device refused fault hook")
		}
		for j := 0; j < 3; j++ {
			text := fmt.Sprintf("iter %d rec %d poi", iter, j)
			if _, err := eng.Add([]float64{float64(iter % 13), float64(j)}, text); err == nil {
				// Acknowledged: durable, must survive the crash.
				oracle = append(oracle, text)
			} else if !storage.IsIOFault(err) {
				t.Fatalf("iter %d: add failed without fault provenance: %v", iter, err)
			}
		}
		setDeviceFault(eng.walFile, nil)
		// Simulated process death; Close skips the WAL sync once broken.
		if err := eng.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", iter, err)
		}
		eng, err = OpenEngine(dir)
		if err != nil {
			t.Fatalf("iter %d: reopen after append crash: %v", iter, err)
		}
		want := append([]string(nil), oracle...)
		sort.Strings(want)
		if got := engineTexts(t, eng); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: recovered %d objects, acknowledged %d\ngot:  %v\nwant: %v",
				iter, len(got), len(want), got, want)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && runtime.NumGoroutine() > startGoroutines; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > startGoroutines {
		t.Fatalf("goroutine leak: %d at start, %d after the crash loop", startGoroutines, n)
	}
}

// TestWALSaveRotatesAndPrunes checks the rotation protocol: Save truncates
// the live log (the new generation starts empty), retains the previous
// generation's log for pinned readers, and prunes generation G-2's.
func TestWALSaveRotatesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewDurableEngine(walConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	addN := func(n int, label string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := eng.Add([]float64{float64(i), float64(n)}, fmt.Sprintf("%s %d poi", label, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	addN(5, "gen1")
	if err := eng.Save(); err != nil { // commits gen 2
		t.Fatal(err)
	}
	addN(3, "gen2")
	if err := eng.Save(); err != nil { // commits gen 3, prunes gen 1
		t.Fatal(err)
	}
	addN(2, "gen3")
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, walName(1))); !os.IsNotExist(err) {
		t.Fatalf("wal.1.db not pruned: %v", err)
	}
	for _, gen := range []uint64{2, 3} {
		if _, err := os.Stat(filepath.Join(dir, walName(gen))); err != nil {
			t.Fatalf("wal.%d.db missing: %v", gen, err)
		}
	}
	cur, err := OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info := cur.WALInfo(); info.ReplayedRecords != 2 {
		t.Fatalf("current generation replayed %d records, want 2 (log rotated at save)", info.ReplayedRecords)
	}
	if got := len(engineTexts(t, cur)); got != 10 {
		t.Fatalf("current generation has %d objects, want 10", got)
	}
	cur.Close()
	// A reader pinned at generation 2 recovers that snapshot and replays its
	// retained log and then generation 3's: acknowledged mutations are never
	// behind a pin, and the engine goes on in the last log's generation.
	old, err := OpenEngineAt(dir, 2)
	if err != nil {
		t.Fatalf("open pinned generation with wal: %v", err)
	}
	defer old.Close()
	if info := old.WALInfo(); info.ReplayedRecords != 5 {
		t.Fatalf("pinned generation replayed %d records, want 3 + 2", info.ReplayedRecords)
	}
	if got := len(engineTexts(t, old)); got != 10 {
		t.Fatalf("pinned generation has %d objects, want 10", got)
	}
	if got := old.Generation(); got != 3 {
		t.Fatalf("pinned open continues in generation %d, want 3", got)
	}
}

// TestWALBrokenEngineRefusesMutationsAndSave checks the sticky-failure
// contract: once an append fails, further mutations and Save are refused
// (the in-memory state may no longer match the durable log) until reopen.
func TestWALBrokenEngineRefusesMutationsAndSave(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewDurableEngine(walConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Add([]float64{1, 1}, "pre fault poi"); err != nil {
		t.Fatal(err)
	}
	if !setDeviceFault(eng.walFile, func(op storage.Op, id storage.BlockID) error {
		if op == storage.OpWrite {
			return &storage.FaultError{Kind: storage.KindWriteError, Op: op, Block: id}
		}
		return nil
	}) {
		t.Fatal("WAL device refused fault hook")
	}
	if _, err := eng.Add([]float64{2, 2}, "doomed"); err == nil {
		t.Fatal("add over failing WAL device succeeded")
	} else if !storage.IsIOFault(err) {
		t.Fatalf("append error lost fault provenance: %v", err)
	}
	setDeviceFault(eng.walFile, nil)
	// The device is healthy again, but the engine must stay read-only.
	if _, err := eng.Add([]float64{3, 3}, "after"); err == nil {
		t.Fatal("add after WAL break succeeded")
	}
	if err := eng.Delete(0); err == nil {
		t.Fatal("delete after WAL break succeeded")
	}
	if err := eng.Save(); err == nil {
		t.Fatal("save after WAL break succeeded")
	}
	// Reads still work.
	if _, err := eng.Get(0); err != nil {
		t.Fatalf("read on a WAL-broken engine: %v", err)
	}
}
