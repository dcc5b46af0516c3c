package spatialkeyword_test

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/storage"
)

// TestPackedRunsUnderMutation holds the runs a pack gives its nodes through
// the inserts that outgrow them, on a single engine and on 4 hash shards, in
// the Restaurants shape (64-byte signatures) and the Hotels one (189).
//
// A flush into an empty tree packs its batch, and every node's run is then
// exactly the blocks its header and entries fill. In the root scenario the
// batch fits one leaf per tree, and later adds, each flushed into the tree
// alone, grow that root past its run: it moves to a capacity run before it
// splits. In the leaf scenario the batch packs two levels, and (on the
// engine) adds at a point only a part-full leaf holds grow that leaf past
// its run: it moves with the node count unchanged. Deletes follow. After
// every step the trees are checkpointed and reopened, hold every structural
// invariant (each node's entries fit its run, no run longer than capacity),
// and the distance-first and ranked answers are the brute-force ones.
func TestPackedRunsUnderMutation(t *testing.T) {
	for _, shape := range []struct {
		name string
		spec dataset.Spec
		sig  int
		// root and grow are the root scenario's rows per shard: the batch
		// packed into one leaf, and the adds after it.
		root, grow int
	}{
		{"restaurants", dataset.Restaurants(0.003), 64, 20, 30},
		{"hotels", dataset.Hotels(0.01), 189, 8, 20},
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
		cfg := spatialkeyword.Config{SignatureBytes: shape.sig}
		for _, arm := range []struct {
			name   string
			shards int
			create func(dir string) (durableBackend, error)
			open   func(dir string) (durableBackend, error)
		}{
			{"engine", 1,
				func(dir string) (durableBackend, error) { return spatialkeyword.NewDurableEngine(cfg, dir) },
				func(dir string) (durableBackend, error) { return spatialkeyword.OpenEngine(dir) }},
			{"4 shards", 4,
				func(dir string) (durableBackend, error) { return shard.NewDurable(cfg, dir, shard.Options{Shards: 4}) },
				func(dir string) (durableBackend, error) { return shard.Open(dir) }},
		} {
			for _, scenario := range []string{"root", "leaf"} {
				t.Run(shape.name+"/"+arm.name+"/"+scenario, func(t *testing.T) {
					dir := t.TempDir()
					b, err := arm.create(dir)
					if err != nil {
						t.Fatal(err)
					}
					m := &diffModel{deleted: map[uint64]bool{}}
					var deletes []uint64
					add := func(p []float64, text string) {
						t.Helper()
						if id, err := b.Add(p, text); err != nil || id != uint64(len(m.rows)) {
							t.Fatalf("Add row %d: id %d, %v", len(m.rows), id, err)
						}
						m.rows = append(m.rows, spatialkeyword.Object{ID: uint64(len(m.rows)), Point: p, Text: text})
					}
					// flush hands the queued adds to the trees.
					flush := func() {
						t.Helper()
						if err := b.Flush(); err != nil {
							t.Fatal(err)
						}
					}
					// step checkpoints and closes b, checks every tree as a
					// reopen finds it, its runs as CheckRuns' runs says, and
					// hands each to inspect, reopens b and asks it the
					// brute-force model's queries.
					step := func(name string, runs int, inspect func(e *spatialkeyword.Engine)) {
						t.Helper()
						if err := b.Save(); err != nil {
							t.Fatal(err)
						}
						if err := b.Close(); err != nil {
							t.Fatal(err)
						}
						for i := 0; i < arm.shards; i++ {
							d := dir
							if s, ok := b.(*shard.ShardedEngine); ok {
								d = s.ShardDir(i)
							}
							e, err := spatialkeyword.OpenEngine(d)
							if err != nil {
								t.Fatal(err)
							}
							spatialkeyword.CheckTree(t, e)
							spatialkeyword.CheckRuns(t, e, runs)
							if inspect != nil {
								inspect(e)
							}
							if err := e.Close(); err != nil {
								t.Fatal(err)
							}
						}
						if b, err = arm.open(dir); err != nil {
							t.Fatal(err)
						}
						oracle := newRankedOracle(cfg.Analyzer(), m.rows, deletes)
						for i := 0; i < 8; i++ {
							p := m.rows[(2*i+1)*len(m.rows)/16].Point
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
					}
					// deleteNear deletes the n live rows nearest to p.
					deleteNear := func(p []float64, n int) {
						t.Helper()
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

					if scenario == "root" {
						for _, o := range rows[:shape.root*arm.shards] {
							add(o.Point, o.Text)
						}
						flush()
						step("pack", spatialkeyword.RunsTight, func(e *spatialkeyword.Engine) {
							if run, capacity := spatialkeyword.RootRun(e); run >= capacity {
								t.Fatalf("pack: the root's run is %d blocks, capacity %d", run, capacity)
							}
						})
						for _, o := range rows[len(m.rows) : len(m.rows)+shape.grow*arm.shards] {
							add(o.Point, o.Text)
							flush()
						}
						step("root moved", spatialkeyword.RunsFit, func(e *spatialkeyword.Engine) {
							run, capacity := spatialkeyword.RootRun(e)
							if _, height := spatialkeyword.TreeShape(e); height != 1 || run != capacity {
								t.Fatalf("after the adds: height %d, root run %d of %d: want a root leaf moved to its capacity run", height, run, capacity)
							}
						})
					} else {
						for _, o := range rows[:len(rows)*3/4] {
							add(o.Point, o.Text)
						}
						flush()
						var p []float64
						step("pack", spatialkeyword.RunsTight, func(e *spatialkeyword.Engine) {
							if _, height := spatialkeyword.TreeShape(e); height != 2 {
								t.Fatalf("pack: height %d, want 2", height)
							}
							p, _ = spatialkeyword.PartFullLeaf(e)
						})
						if e, ok := b.(*spatialkeyword.Engine); ok {
							if p == nil {
								t.Fatal("pack: no part-full leaf holds a point of its own")
							}
							nodes, _ := spatialkeyword.TreeShape(e)
							before, capacity, _ := spatialkeyword.LeafRunAt(e, p)
							for i := 0; ; i++ {
								add(p, rows[len(rows)*3/4+i].Text)
								flush()
								run, _, entries := spatialkeyword.LeafRunAt(e, p)
								if got, _ := spatialkeyword.TreeShape(e); got != nodes {
									t.Fatalf("add %d at %v: %d nodes, %d before: the leaf split before it moved", i, p, got, nodes)
								}
								if run == capacity {
									t.Logf("the leaf at %v moved from %d blocks to %d at %d entries", p, before, run, entries)
									break
								}
							}
						} else {
							for _, o := range rows[len(m.rows) : len(m.rows)+60] {
								add(o.Point, o.Text)
								flush()
							}
						}
						step("leaf moved", spatialkeyword.RunsFit, nil)
					}
					deleteNear(m.rows[len(m.rows)/3].Point, len(m.rows)/4)
					step("delete", spatialkeyword.RunsFit, nil)
					if err := b.Close(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestCompatParentDirectoriesReadCapacityRuns: the engine directories of
// testdata/compat, written before node headers recorded runs, hold nodes
// whose headers read as capacity runs. Each opens (from a copy) with every
// node on its capacity run, and a top-k answers and costs what it did
// before runs were recorded: its IDs and its blocks read, measured at the
// commit before. Each root leaf has a 2-block capacity run, of which its
// entries (16-byte signatures) fill 1, so each read of it counts a
// sequential block.
func TestCompatParentDirectoriesReadCapacityRuns(t *testing.T) {
	for _, tc := range []struct {
		dir                string
		ids                []uint64
		random, sequential uint64
	}{
		{"single-ae80bff", []uint64{2, 46, 37, 30, 45, 10, 11}, 8, 1},
		{"single-nowal-ae80bff", []uint64{2, 37, 30, 10, 11, 39, 29}, 8, 1},
		{"nested-ae80bff/shard-0000", []uint64{2, 10, 11, 1, 4, 9, 12}, 7, 2},
	} {
		t.Run(tc.dir, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, dir, filepath.Join("testdata/compat", tc.dir))
			e, err := spatialkeyword.OpenEngine(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			spatialkeyword.CheckTree(t, e)
			spatialkeyword.CheckRuns(t, e, spatialkeyword.RunsCapacity)
			res, st, err := e.TopKWithStats(7, []float64{25.3, -79.7}, "cafe")
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(ids(res)) != fmt.Sprint(tc.ids) || st.BlocksRandom != tc.random || st.BlocksSequential != tc.sequential {
				t.Fatalf("top 7 \"cafe\": %v in %d random and %d sequential blocks, want %v in %d and %d",
					ids(res), st.BlocksRandom, st.BlocksSequential, tc.ids, tc.random, tc.sequential)
			}
		})
	}
}
