package spatialkeyword

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"spatialkeyword/internal/storage"
)

// committedFrontier returns the object-file frontier dir's manifest.json
// commits.
func committedFrontier(t *testing.T, dir string) storage.BlockID {
	t.Helper()
	m, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if m.ObjectsFrontier == 0 {
		t.Fatalf("generation %d's manifest records no object frontier", m.Generation)
	}
	return storage.BlockID(m.ObjectsFrontier)
}

// committedPrefix returns objects.db's data blocks below frontier: the
// bytes every generation committed so far lives in.
func committedPrefix(t *testing.T, dir string, frontier storage.BlockID) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, objectsName))
	if err != nil {
		t.Fatal(err)
	}
	bs := storage.DefaultBlockSize
	end := int(frontier-1) * bs
	if len(data) < end {
		t.Fatalf("objects.db holds %d bytes, its frontier %d needs %d", len(data), frontier, end)
	}
	return data[bs:end]
}

// TestCommittedObjectBlocksNeverWritten: once a Save commits, no write
// reaches an object block below the committed frontier. A fault hook on the
// object file's disk fails any such write through adds, deletes, a flush of
// a full run, a second Save, a Save killed at every hooked filesystem
// operation, and an OpenEngineAt of the generation before the committed one
// (which replays every log up to the commit point with a WAL); the bytes
// below the frontier are also compared before and after the reopen, which
// the hook cannot watch.
func TestCommittedObjectBlocksNeverWritten(t *testing.T) {
	for _, logged := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", logged), func(t *testing.T) {
			dir := t.TempDir()
			eng, err := NewDurableEngine(Config{SignatureBytes: 16, WAL: logged}, dir)
			if err != nil {
				t.Fatal(err)
			}
			next := 0
			add := func(n int) {
				t.Helper()
				for ; n > 0; n-- {
					text := fmt.Sprintf("row %d poi", next) + strings.Repeat(" word", next%40)
					if _, err := eng.Add([]float64{float64(next % 17), float64(next % 11)}, text); err != nil {
						t.Fatal(err)
					}
					next++
				}
			}
			var tripped []string
			var frontier storage.BlockID
			guard := func() {
				frontier = committedFrontier(t, dir)
				eng.objFile.SetFault(func(op storage.Op, id storage.BlockID) error {
					if op == storage.OpWrite && id < frontier {
						tripped = append(tripped, fmt.Sprintf("write of block %d below frontier %d", id, frontier))
						return errors.New("write below the committed frontier")
					}
					return nil
				})
			}
			save := func() {
				t.Helper()
				if err := eng.Save(); err != nil {
					t.Fatal(err)
				}
				guard()
			}

			add(400)
			save()
			add(50)
			for id := uint64(0); id < 400; id += 40 {
				if err := eng.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			add(170)
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
			save()
			for k := 1; k <= 8; k++ {
				add(3)
				restore := crashFS(k)
				saveErr := eng.Save()
				restore()
				guard()
				if saveErr == nil && eng.Generation() != committedGeneration(t, dir) {
					t.Fatalf("kill at op %d: Save returned nil without committing", k)
				}
			}
			add(30)
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
			if tripped != nil {
				t.Fatalf("%d writes below the frontier, first %s", len(tripped), tripped[0])
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			gen, committed := committedGeneration(t, dir), frontier
			before := committedPrefix(t, dir, committed)
			if eng, err = OpenEngineAt(dir, gen-1); err != nil {
				t.Fatal(err)
			}
			guard()
			add(200)
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
			save()
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if tripped != nil {
				t.Fatalf("%d writes below the frontier after OpenEngineAt(%d), first %s", len(tripped), gen-1, tripped[0])
			}
			if !bytes.Equal(committedPrefix(t, dir, committed), before) {
				t.Fatalf("OpenEngineAt(%d) with %d committed rewrote object blocks below the frontier", gen-1, gen)
			}
			reopened, err := OpenEngine(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			CheckTree(t, reopened)
		})
	}
}

// committedGeneration returns the generation dir's manifest.json commits.
func committedGeneration(t *testing.T, dir string) uint64 {
	t.Helper()
	m, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	return m.Generation
}

// TestOpenCutsObjectFileAtFrontier: the open takes objects.db's allocator
// state from the committed manifest alone. With the file's header zeroed and
// junk blocks appended past the frontier, OpenEngine recovers exactly the
// committed rows (and, with a WAL, the logged ones) and leaves the file
// ending at the frontier.
func TestOpenCutsObjectFileAtFrontier(t *testing.T) {
	for _, logged := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", logged), func(t *testing.T) {
			dir := t.TempDir()
			eng, err := NewDurableEngine(Config{SignatureBytes: 16, WAL: logged}, dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				if _, err := eng.Add([]float64{float64(i % 13), float64(i % 7)}, fmt.Sprintf("committed %d poi", i)); err != nil {
					t.Fatal(err)
				}
			}
			deleted := []uint64{4, 150}
			for _, id := range deleted {
				if err := eng.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Save(); err != nil {
				t.Fatal(err)
			}
			want := engineTexts(t, eng) // deleted rows' texts included
			for i := 0; i < 3; i++ {
				text := fmt.Sprintf("after the commit %d poi", i)
				if _, err := eng.Add([]float64{1, float64(i)}, text); err != nil {
					t.Fatal(err)
				}
				if logged {
					want = append(want, text)
				}
			}
			sort.Strings(want)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			frontier := committedFrontier(t, dir)
			path := filepath.Join(dir, objectsName)
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			info, err := f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			junk := bytes.Repeat([]byte{0xa5}, 3*storage.DefaultBlockSize)
			_, err = f.WriteAt(make([]byte, 32), 0)
			if err == nil {
				_, err = f.WriteAt(junk, info.Size())
			}
			if err := errors.Join(err, f.Close()); err != nil {
				t.Fatal(err)
			}

			eng, err = OpenEngine(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			info, err = os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if end := int64(frontier-1) * storage.DefaultBlockSize; info.Size() != end {
				t.Fatalf("objects.db is %d bytes after the open, its frontier %d ends at %d", info.Size(), frontier, end)
			}
			if got := engineTexts(t, eng); !slices.Equal(got, want) {
				t.Fatalf("recovered %d rows, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
			}
			res, err := eng.TopK(len(want)+1, []float64{5, 5}, "poi")
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(want)-len(deleted) {
				t.Fatalf("query found %d rows, want %d", len(res), len(want)-len(deleted))
			}
			CheckTree(t, eng)
		})
	}
}
