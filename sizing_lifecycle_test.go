package spatialkeyword_test

import (
	"fmt"
	"sort"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/storage"
)

// durableBackend is a backend that saves to and reopens from a directory.
type durableBackend interface {
	backend
	Flush() error
	Save() error
	Close() error
}

// TestSizedLevelsUnderMutation drives a packed index through every way a
// served tree changes after its pack — adds that split leaves (and, in the
// Restaurants shape, roots), deletes that condense a region away, a save and
// reopen, and a write-ahead log replayed onto the snapshot — on a single
// engine and on 4 hash shards. In the Restaurants shape (short rows, 512-byte
// blocks so that a few thousand rows make trees three and four levels high)
// the leaf-summary level gets a sized signature; in the Hotels shape (long
// rows, 4 KB blocks) it gets none. After every step each tree holds every
// structural invariant, every sized signature covers the words under it, and
// the distance-first and ranked answers are the brute-force ones.
func TestSizedLevelsUnderMutation(t *testing.T) {
	for _, shape := range []struct {
		name      string
		spec      dataset.Spec
		sig, bs   int
		pack      [2]int // the engine's and the shards' pack: the first len(rows)/pack rows
		splitRoot bool
		// packed checks the lengths a pack chose.
		packed func(lens []int) bool
	}{
		{"restaurants", dataset.Restaurants(0.004), 32, 512, [2]int{8, 3}, true,
			func(lens []int) bool { return len(lens) > 1 && lens[1] != 0 && lens[1] != 32 }},
		{"hotels", dataset.Hotels(0.0134), 64, 4096, [2]int{2, 2}, false,
			func(lens []int) bool { return len(lens) > 1 && lens[1] == 0 }},
	} {
		store := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
		stats, err := dataset.Generate(shape.spec, store)
		if err != nil {
			t.Fatal(err)
		}
		var rows []spatialkeyword.Object
		if err := store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
			rows = append(rows, spatialkeyword.Object{ID: uint64(o.ID), Point: o.Point, Text: o.Text})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		words := stats.WordsByFreq()
		frequent, mid := words[:len(words)/50], words[len(words)/50:len(words)/5]
		cfg := spatialkeyword.Config{SignatureBytes: shape.sig, BlockSize: shape.bs, WAL: true}
		for ai, arm := range []struct {
			name   string
			create func(dir string) (durableBackend, error)
			open   func(dir string) (durableBackend, error)
			shards func(b durableBackend, dir string) []string
		}{
			{"engine",
				func(dir string) (durableBackend, error) { return spatialkeyword.NewDurableEngine(cfg, dir) },
				func(dir string) (durableBackend, error) { return spatialkeyword.OpenEngine(dir) },
				func(_ durableBackend, dir string) []string { return []string{dir} }},
			{"4 shards",
				func(dir string) (durableBackend, error) { return shard.NewDurable(cfg, dir, shard.Options{Shards: 4}) },
				func(dir string) (durableBackend, error) { return shard.Open(dir) },
				func(b durableBackend, _ string) []string {
					s := b.(*shard.ShardedEngine)
					dirs := make([]string, s.NumShards())
					for i := range dirs {
						dirs[i] = s.ShardDir(i)
					}
					return dirs
				}},
		} {
			t.Run(shape.name+"/"+arm.name, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				b, err := arm.create(dir)
				if err != nil {
					t.Fatal(err)
				}
				m := &diffModel{deleted: map[uint64]bool{}}
				var deletes []uint64
				add := func(to int) {
					for _, o := range rows[len(m.rows):to] {
						if id, err := b.Add(o.Point, o.Text); err != nil || id != o.ID {
							t.Fatalf("Add row %d: id %d, %v", o.ID, id, err)
						}
						m.rows = append(m.rows, o)
					}
				}
				// deleteNear deletes the n live rows nearest to p.
				deleteNear := func(p []float64, n int) {
					live := m.matches(nil)
					sort.SliceStable(live, func(a, b int) bool { return m.dist(live[a], p) < m.dist(live[b], p) })
					for _, o := range live[:n] {
						if err := b.Delete(o.ID); err != nil {
							t.Fatal(err)
						}
						m.deleted[o.ID] = true
						deletes = append(deletes, o.ID)
					}
				}
				// step closes b — after a save unless the log is to be
				// replayed — checks every shard's tree as a reopen finds
				// it, reopens b and asks it the oracle's queries. It
				// returns the shards' node counts and heights, and whether
				// any shard's lengths pass shape.packed.
				step := func(name string, save bool) (nodes, height []int, packed bool) {
					t.Helper()
					if save {
						if err := b.Save(); err != nil {
							t.Fatal(err)
						}
					}
					dirs := arm.shards(b, dir)
					if err := b.Close(); err != nil {
						t.Fatal(err)
					}
					var lens [][]int
					for _, d := range dirs {
						e, err := spatialkeyword.OpenEngine(d)
						if err != nil {
							t.Fatal(err)
						}
						spatialkeyword.CheckTree(t, e)
						n, h := spatialkeyword.TreeShape(e)
						nodes, height = append(nodes, n), append(height, h)
						lens = append(lens, e.Stats().SignatureBytesByLevel)
						packed = packed || shape.packed(lens[len(lens)-1])
						if err := e.Close(); err != nil {
							t.Fatal(err)
						}
					}
					if b, err = arm.open(dir); err != nil {
						t.Fatal(err)
					}
					oracle := newRankedOracle(cfg.Analyzer(), m.rows, deletes)
					for i := 0; i < 8; i++ {
						p := rows[(2*i+1)*len(rows)/16].Point
						kws := []string{frequent[i*7%len(frequent)], mid[i*13%len(mid)], mid[i*29%len(mid)]}
						got, err := b.TopK(10, p, kws[:1+i%2]...)
						if err != nil {
							t.Fatal(err)
						}
						if want := m.topK(10, p, kws[:1+i%2]); fmt.Sprint(ids(got)) != fmt.Sprint(want) {
							t.Fatalf("%s: TopK(%v, %v) = %v, brute force %v", name, p, kws[:1+i%2], ids(got), want)
						}
						ranked, err := b.TopKRanked(10, p, kws...)
						if err != nil {
							t.Fatal(err)
						}
						if diff := sameRanked(ranked, oracle.topK(10, p, kws, false)); diff != "" {
							t.Fatalf("%s: TopKRanked(%v, %v): %s", name, p, kws, diff)
						}
					}
					t.Logf("%s: nodes %v, height %v, signature bytes by level %v", name, nodes, height, lens)
					return nodes, height, packed
				}
				// some reports whether f holds for some shard.
				some := func(n int, f func(i int) bool) bool {
					for i := 0; i < n; i++ {
						if f(i) {
							return true
						}
					}
					return false
				}

				add(len(rows) / shape.pack[ai])
				if err := b.Flush(); err != nil {
					t.Fatal(err)
				}
				_, packed, ok := step("pack", true)
				if !ok {
					t.Fatal("no pack chose the lengths this shape is for")
				}
				add(len(rows) * 3 / 4)
				before, grown, _ := step("add", true)
				if shape.splitRoot && !some(len(grown), func(i int) bool { return grown[i] > packed[i] }) {
					t.Fatalf("heights %v after the adds, %v after the pack: no root split", grown, packed)
				}
				deleteNear(rows[len(rows)/3].Point, len(rows)/4)
				after, _, _ := step("delete", true)
				if !some(len(after), func(i int) bool { return after[i] < before[i] }) {
					t.Fatalf("%v nodes after the deletes, %v before: no condense", after, before)
				}
				add(len(rows))
				deleteNear(rows[2*len(rows)/3].Point, len(rows)/16)
				step("wal replay", false)
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
