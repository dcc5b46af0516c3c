package spatialkeyword_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/skql"
	"spatialkeyword/internal/storage"
)

var update = flag.Bool("update", false, "rewrite testdata/served_cells.json from this run")

// servedCellsFile holds the served path's modeled work: the golden
// TestServedCellsGolden compares a run against.
const servedCellsFile = "testdata/served_cells.json"

// servedCells is the served path's modeled work on one engine: the shape of
// each of its trees and, per query shape, the sums over its 256 queries.
type servedCells struct {
	Engine string       `json:"engine"`
	Trees  []treeCells  `json:"trees"`
	Shapes []shapeCells `json:"shapes"`
}

// treeCells is one tree's shape: its levels, its node count and the
// signature bytes of each level, the leaves' first.
type treeCells struct {
	Levels          int   `json:"levels"`
	Nodes           int   `json:"nodes"`
	SigBytesByLevel []int `json:"sig_bytes_by_level"`
}

// shapeCells sums one query shape's work over its queries.
type shapeCells struct {
	Shape            string `json:"shape"`
	Queries          int    `json:"queries"`
	NodesLoaded      int    `json:"nodes_loaded"`
	RowsRead         int    `json:"rows_read"`
	BlocksRandom     uint64 `json:"blocks_random"`
	BlocksSequential uint64 `json:"blocks_sequential"`
}

// add sums one query's work into c.
func (c *shapeCells) add(w spatialkeyword.QueryStats) {
	c.Queries++
	c.NodesLoaded += w.NodesLoaded
	c.RowsRead += w.ObjectsLoaded
	c.BlocksRandom += w.BlocksRandom
	c.BlocksSequential += w.BlocksSequential
}

// TestServedCellsGolden holds the served path's modeled work to
// testdata/served_cells.json: the engines the durable benchmarks serve
// (Restaurants(0.03) with 64-byte signatures and Hotels(0.02) with 189-byte
// ones, each saved and reopened) and skql_sharded's (Restaurants(0.05),
// 64-byte signatures, 4 hash shards, saved and reopened), each asked the
// 256 benchmark queries of three shapes: a distance-first top-10, a ranked
// top-10, and the distance-first shape as SKQL forced onto the inverted
// index (USING iio) through a skql.Catalog. Each shape runs once to warm the
// node caches and the disks' head positions, then once counted. The counts
// are deterministic; a change that moves any of them rewrites the file with
// -update and says which cells moved.
func TestServedCellsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three durable engines")
	}
	var got []servedCells
	for _, spec := range []struct {
		name     string
		spec     dataset.Spec
		sigBytes int
		mids     int // mid-band words of a ranked query
	}{
		{"restaurants_0.03_64B", dataset.Restaurants(0.03), 64, 1},
		{"hotels_0.02_189B", dataset.Hotels(0.02), 189, 2},
	} {
		dir := t.TempDir()
		points, frequent, mid := saveBenchEngine(t, dir, spec.spec, spec.sigBytes)
		eng, err := spatialkeyword.OpenEngine(dir)
		if err != nil {
			t.Fatal(err)
		}
		c := servedCells{Engine: spec.name}
		nodes, _ := spatialkeyword.TreeShape(eng)
		c.Trees = append(c.Trees, treeOf(eng.Stats(), nodes))
		c.Shapes = runShapes(t, eng, points, frequent, mid, spec.mids)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		got = append(got, c)
	}
	got = append(got, shardedCells(t))

	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	if *update {
		if err := os.WriteFile(servedCellsFile, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(servedCellsFile)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if !bytes.Equal(b, want) {
		t.Errorf("served cells moved from %s:\n%s", servedCellsFile, b)
	}
}

// shardedCells builds skql_sharded's engine — Restaurants(0.05), 64-byte
// signatures, 4 hash shards, saved and reopened — and runs the shapes on
// it; each shard's tree is read by reopening its directory afterwards.
func shardedCells(t *testing.T) servedCells {
	dir := t.TempDir()
	store := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
	stats, err := dataset.Generate(dataset.Restaurants(0.05), store)
	if err != nil {
		t.Fatal(err)
	}
	built, err := shard.NewDurable(spatialkeyword.Config{SignatureBytes: 64}, dir, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var points [][]float64
	if err := store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
		points = append(points, o.Point)
		_, err := built.Add(o.Point, o.Text)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := built.Save(); err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := shard.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	words := stats.WordsByFreq()
	c := servedCells{Engine: "skql_sharded_restaurants_0.05_64B_4shards"}
	c.Shapes = runShapes(t, s, points, words[:len(words)/50], words[len(words)/50:len(words)/5], 1)
	dirs := make([]string, s.NumShards())
	for i := range dirs {
		dirs[i] = s.ShardDir(i)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		e, err := spatialkeyword.OpenEngine(d)
		if err != nil {
			t.Fatal(err)
		}
		nodes, _ := spatialkeyword.TreeShape(e)
		c.Trees = append(c.Trees, treeOf(e.Stats(), nodes))
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// treeOf is a tree's cells from its engine's stats and node count.
func treeOf(st spatialkeyword.Stats, nodes int) treeCells {
	return treeCells{Levels: st.TreeHeight, Nodes: nodes, SigBytesByLevel: st.SignatureBytesByLevel}
}

// runShapes runs the three query shapes on r, each warm, and returns their
// sums. A distance-first and an IIO query take a frequent word and one mid
// one; a ranked query a frequent word and mids mid ones.
func runShapes(t *testing.T, r spatialkeyword.Reader, points [][]float64, frequent, mid []string, mids int) []shapeCells {
	t.Helper()
	dist := benchQueries(points, frequent, mid, 1)
	ranked := benchQueries(points, frequent, mid, mids)
	cat := skql.NewCatalog(r)
	if err := cat.EnsureIndex(); err != nil {
		t.Fatal(err)
	}
	var res []spatialkeyword.RankedResult
	shapes := []struct {
		name string
		run  func(q benchQuery) spatialkeyword.QueryStats
		qs   []benchQuery
	}{
		{"distance_first", func(q benchQuery) spatialkeyword.QueryStats {
			_, st, err := r.TopKWithStats(10, q.point, q.words...)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}, dist},
		{"ranked", func(q benchQuery) spatialkeyword.QueryStats {
			it, err := r.SearchRanked(q.point, q.words...)
			if err != nil {
				t.Fatal(err)
			}
			if res, err = spatialkeyword.FirstK(res, it, 10, nil); err != nil {
				t.Fatal(err)
			}
			it.Close()
			return it.Stats()
		}, ranked},
		{"distance_first_iio", func(q benchQuery) spatialkeyword.QueryStats {
			stmt, err := skql.Parse(fmt.Sprintf(`SELECT TOP 10 NEAR (%v, %v) MATCH %q AND %q USING iio`,
				q.point[0], q.point[1], q.words[0], q.words[1]))
			if err != nil {
				t.Fatal(err)
			}
			rs, err := cat.Run(stmt)
			if err != nil {
				t.Fatal(err)
			}
			var st spatialkeyword.QueryStats
			for _, a := range rs.Actuals {
				st.Add(a.Work)
			}
			return st
		}, dist},
	}
	out := make([]shapeCells, 0, len(shapes))
	for _, sh := range shapes {
		for _, q := range sh.qs {
			sh.run(q)
		}
		c := shapeCells{Shape: sh.name}
		for _, q := range sh.qs {
			c.add(sh.run(q))
		}
		out = append(out, c)
	}
	return out
}
