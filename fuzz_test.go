package spatialkeyword

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzPersistOpen mutates a committed engine directory — the object file
// the generation is a prefix of, the index snapshot, the per-generation
// manifest, and the commit manifest itself — and reopens it.
// The recovery contract under fuzz: OpenEngine either restores a readable,
// queryable engine or returns an error. It never panics, and (with
// checksums on) never serves a silently corrupted tree: any query against a
// successfully opened engine completes with results or a typed error.
func FuzzPersistOpen(f *testing.F) {
	f.Add(uint32(0), uint32(0), []byte{0x00})                // no-op patch: clean reopen
	f.Add(uint32(0), uint32(12), []byte{0xff})               // torn commit manifest
	f.Add(uint32(1), uint32(40), []byte("garbage"))          // generation manifest
	f.Add(uint32(2), uint32(700), []byte{0x80})              // object file bit flip
	f.Add(uint32(3), uint32(5000), []byte{0x01, 0x02, 0x04}) // index snapshot
	f.Fuzz(func(t *testing.T, sel, off uint32, patch []byte) {
		if len(patch) > 256 {
			t.Skip("patch larger than interesting")
		}
		dir := t.TempDir()
		eng, err := NewDurableEngine(Config{SignatureBytes: 8, Checksums: true}, dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if _, err := eng.Add([]float64{float64(i), float64(5 - i)}, fmt.Sprintf("object %d word", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Save(); err != nil {
			t.Fatal(err)
		}
		gen := eng.Generation()
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}

		targets := []string{
			manifestName,
			genManifestName(gen),
			objectsName,
			genIndexName(gen),
		}
		path := filepath.Join(dir, targets[int(sel)%len(targets)])
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		changed := false
		if len(data) > 0 {
			for i, b := range patch {
				if b == 0 {
					continue
				}
				data[(int(off)+i)%len(data)] ^= b
				changed = true
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		reopened, err := OpenEngine(dir)
		if err != nil {
			return // typed rejection of a damaged directory is a correct outcome
		}
		defer reopened.Close()
		// The engine opened: it must be serviceable. Queries may surface a
		// typed corruption error (checksums catch snapshot damage lazily)
		// but must never panic or hang.
		res, err := reopened.TopK(6, []float64{2, 2}, "word")
		if err == nil && !changed && len(res) != 6 {
			t.Fatalf("clean reopen lost objects: %d of 6", len(res))
		}
		reopened.Stats()
		_ = reopened.Scan(func(Object) error { return nil })
	})
}
