package spatialkeyword_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/shard"
)

// setConfigKey sets key to value in the "config" object of every manifest
// under dir — each shard's manifest.json and its generation copies, and a
// sharded directory's shards.json — as a build that still had the option
// would have written them.
func setConfigKey(t *testing.T, dir, key string, value any) {
	t.Helper()
	patched := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var m map[string]any
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		if err := dec.Decode(&m); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		cfg, ok := m["config"].(map[string]any)
		if !ok {
			return nil
		}
		cfg[key] = value
		if data, err = json.Marshal(m); err != nil {
			return err
		}
		patched++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if patched == 0 {
		t.Fatalf("no manifest under %s", dir)
	}
}

// TestOpenRefusesRetiredOptions: a directory whose manifests carry an option
// Config no longer has, at a value the engine's constants do not reproduce,
// is refused with ErrRetiredOption — and with ErrLegacyMultilevel, its
// earlier name — single engine and sharded alike: never opened as an index
// whose signature lengths, dimension or bits per word it would misread. The
// values the constants do reproduce, among them the zero every manifest
// written before the options were retired carries, open with the same
// answers.
func TestOpenRefusesRetiredOptions(t *testing.T) {
	cfg := spatialkeyword.Config{SignatureBytes: 16}
	layouts := []struct {
		name   string
		create func(dir string) (durableBackend, error)
		open   func(dir string) (durableBackend, error)
	}{
		{"engine",
			func(dir string) (durableBackend, error) { return spatialkeyword.NewDurableEngine(cfg, dir) },
			func(dir string) (durableBackend, error) { return spatialkeyword.OpenEngine(dir) }},
		{"sharded",
			func(dir string) (durableBackend, error) {
				return shard.NewDurable(cfg, dir, shard.Options{Shards: 2})
			},
			func(dir string) (durableBackend, error) { return shard.Open(dir) }},
	}
	retired := []struct {
		key    string
		value  any
		refuse bool
	}{
		{"Multilevel", false, false},
		{"Multilevel", true, true},
		{"Dim", 0, false},
		{"Dim", 2, false},
		{"Dim", 3, true},
		{"BitsPerWord", 0, false},
		{"BitsPerWord", 4, false},
		{"BitsPerWord", 8, true},
	}
	for _, l := range layouts {
		for _, r := range retired {
			t.Run(fmt.Sprintf("%s/%s=%v", l.name, r.key, r.value), func(t *testing.T) {
				dir := t.TempDir()
				b, err := l.create(dir)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 60; i++ {
					text := []string{"pool wifi", "pool", "bar"}[i%3]
					if _, err := b.Add([]float64{float64(i % 8), float64(i / 8)}, text); err != nil {
						t.Fatal(err)
					}
				}
				want, err := b.TopK(5, []float64{3, 3}, "pool")
				if err != nil {
					t.Fatal(err)
				}
				if err := b.Save(); err != nil {
					t.Fatal(err)
				}
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
				setConfigKey(t, dir, r.key, r.value)
				re, err := l.open(dir)
				if r.refuse {
					if err == nil {
						re.Close()
						t.Fatalf("opened a directory saved with %s=%v", r.key, r.value)
					}
					if !errors.Is(err, spatialkeyword.ErrRetiredOption) || !errors.Is(err, spatialkeyword.ErrLegacyMultilevel) {
						t.Fatalf("open: %v, want ErrRetiredOption", err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				got, err := re.TopK(5, []float64{3, 3}, "pool")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("reopened answer %v, want %v", got, want)
				}
			})
		}
	}
}
