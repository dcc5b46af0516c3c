package spatialkeyword

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"spatialkeyword/internal/core"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// packRow is one generated row, in insertion order.
type packRow struct {
	point []float64
	text  string
}

// packRows generates a dataset slice in memory.
func packRows(t testing.TB, spec dataset.Spec) ([]packRow, *dataset.Stats) {
	t.Helper()
	store := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
	stats, err := dataset.Generate(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	var rows []packRow
	if err := store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
		rows = append(rows, packRow{o.Point, o.Text})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows, stats
}

// referenceNodes builds two trees over e's object file with e's options,
// one packed by STR and one by repeated Insert, and returns their node
// counts.
func referenceNodes(t *testing.T, e *Engine) (packed, inserted int) {
	t.Helper()
	nodes := func(build func(*core.IR2Tree) error) int {
		ref, err := core.New(storage.NewDisk(e.idxDisk.BlockSize()), e.store, e.coreOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := build(ref); err != nil {
			t.Fatal(err)
		}
		return ref.RTree().NumNodes()
	}
	return nodes((*core.IR2Tree).BuildBulk), nodes((*core.IR2Tree).Build)
}

// checkPacked requires e's tree to hold every live object in no more nodes
// than an STR build of the same rows, and fewer than an insert-built one, with
// every structural invariant intact.
func checkPacked(t *testing.T, e *Engine) {
	t.Helper()
	checkTree(t, e)
	rt := e.tree.RTree()
	packed, inserted := referenceNodes(t, e)
	t.Logf("%d objects: %d nodes; STR reference %d, insert-built %d", rt.Len(), rt.NumNodes(), packed, inserted)
	if rt.NumNodes() > packed || rt.NumNodes() >= inserted {
		t.Fatalf("tree has %d nodes; STR packs the rows into %d, repeated Insert into %d", rt.NumNodes(), packed, inserted)
	}
}

// checkTree holds e's tree to every structural invariant — each signature of
// a sized level holds the bits of every word under it, each node's entries
// fit its run and no run is longer than capacity — and the tree and the
// queued run together to e's live objects, the run under a leaf's worth.
func checkTree(t *testing.T, e *Engine) {
	t.Helper()
	rt := e.tree.RTree()
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkRuns(t, e, RunsFit)
	if q := len(e.run); rt.Len()+q != e.live || (rt.Height() > 0 && q >= rt.MaxEntries()) {
		t.Fatalf("tree holds %d objects and the run %d, engine has %d live", rt.Len(), q, e.live)
	}
}

// CheckTree is checkTree for the external tests.
var CheckTree = checkTree

// The runs checkRuns requires beyond the bounds every run keeps.
const (
	RunsFit      = iota // the bounds alone
	RunsTight           // what BulkLoad allocates
	RunsCapacity        // what every insert allocates
)

// checkRuns holds every node of e's tree to its run: the blocks its header
// and entries fill at least and its capacity run at most, and exactly the
// one want names.
func checkRuns(t *testing.T, e *Engine, want int) {
	t.Helper()
	rt := e.tree.RTree()
	if err := rt.VisitNodes(func(n *rtree.Node) error {
		filled, capacity := rt.RunFor(n.Level(), n.NumEntries()), rt.RunFor(n.Level(), rt.MaxEntries())
		if n.Run() < filled || n.Run() > capacity ||
			want == RunsTight && n.Run() != filled || want == RunsCapacity && n.Run() != capacity {
			return fmt.Errorf("node %d: %d entries at level %d on a run of %d blocks; they fill %d, capacity %d",
				n.ID(), n.NumEntries(), n.Level(), n.Run(), filled, capacity)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// CheckRuns is checkRuns for the external tests.
var CheckRuns = checkRuns

// RootRun returns the run of e's root and the capacity run of its level.
func RootRun(e *Engine) (run, capacity int) {
	rt := e.tree.RTree()
	root, err := rt.Root()
	if err != nil || root == nil {
		panic(fmt.Sprint("no root: ", err))
	}
	return root.Run(), rt.RunFor(root.Level(), rt.MaxEntries())
}

// PartFullLeaf returns the point of an object entry of one of e's leaves on a
// run shorter than capacity that no other leaf's MBR holds, so an insert at
// the point descends to that leaf when the root is its parent, or ok false.
func PartFullLeaf(e *Engine) (point []float64, ok bool) {
	rt := e.tree.RTree()
	leaves := leafNodes(e)
	for _, l := range leaves {
		if l.Run() == rt.RunFor(0, rt.MaxEntries()) {
			continue
		}
		for i := 0; i < l.NumEntries(); i++ {
			_, r, _ := l.Entry(i)
			if len(leavesHolding(leaves, r.Lo)) == 1 {
				return r.Lo, true
			}
		}
	}
	return nil, false
}

// LeafRunAt returns the run of the one leaf of e whose MBR holds point, the
// leaf's capacity run and its entry count.
func LeafRunAt(e *Engine, point []float64) (run, capacity, entries int) {
	held := leavesHolding(leafNodes(e), point)
	if len(held) != 1 {
		panic(fmt.Sprintf("%d leaves hold %v", len(held), point))
	}
	rt := e.tree.RTree()
	return held[0].Run(), rt.RunFor(0, rt.MaxEntries()), held[0].NumEntries()
}

// leafNodes returns every leaf of e's tree.
func leafNodes(e *Engine) []*rtree.Node {
	var leaves []*rtree.Node
	if err := e.tree.RTree().VisitNodes(func(n *rtree.Node) error {
		if n.Level() == 0 {
			leaves = append(leaves, n)
		}
		return nil
	}); err != nil {
		panic(err)
	}
	return leaves
}

// leavesHolding returns the leaves whose MBR holds p.
func leavesHolding(leaves []*rtree.Node, p geo.Point) []*rtree.Node {
	var out []*rtree.Node
	for _, l := range leaves {
		var mbr geo.Rect
		for i := 0; i < l.NumEntries(); i++ {
			_, r, _ := l.Entry(i)
			mbr = mbr.Union(r)
		}
		if mbr.ContainsPoint(p) {
			out = append(out, l)
		}
	}
	return out
}

// LeafCapacity is the node capacity of the tree an engine with cfg builds:
// the rows its queued run holds at most.
func LeafCapacity(cfg Config) int {
	e, err := NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	return e.tree.RTree().MaxEntries()
}

// IndexIO returns the block accesses of e's index device so far.
func IndexIO(e *Engine) storage.Stats { return e.idxDisk.Stats() }

// TreeShape returns the node count and height of e's tree.
func TreeShape(e *Engine) (nodes, height int) {
	return e.tree.RTree().NumNodes(), e.tree.RTree().Height()
}

// CheckPacked is checkPacked for the external tests, which see a sharded
// engine's shards only as directories they reopen.
var CheckPacked = checkPacked

// TestSaveAfterLoadPacksTree: a durable engine's load followed by Save
// flushes one batch into an empty tree, which packs it.
func TestSaveAfterLoadPacksTree(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec dataset.Spec
		sig  int
	}{{"IR2", dataset.Restaurants(0.03), 64}, {"Hotels", dataset.Hotels(0.01), 189}} {
		t.Run(tc.name, func(t *testing.T) {
			rows, _ := packRows(t, tc.spec)
			e, err := NewDurableEngine(Config{SignatureBytes: tc.sig}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for _, r := range rows {
				if _, err := e.Add(r.point, r.text); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Save(); err != nil {
				t.Fatal(err)
			}
			checkPacked(t, e)
		})
	}
}

// TestWALReplayOntoEmptySnapshotPacks: adds logged after a WAL engine's
// initial empty checkpoint and never saved replay into the pending batch on
// reopen, and the first query packs them into the empty snapshot's tree.
func TestWALReplayOntoEmptySnapshotPacks(t *testing.T) {
	rows, stats := packRows(t, dataset.Restaurants(0.004))
	dir := t.TempDir()
	eng, err := NewDurableEngine(walConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if _, err := eng.Add(r.point, r.text); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil { // a crash: no Save
		t.Fatal(err)
	}
	e, err := OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := e.WALInfo().ReplayedRecords; got != uint64(len(rows)) {
		t.Fatalf("replayed %d records, want %d", got, len(rows))
	}
	if e.tree.RTree().Height() != 0 || len(e.run) != len(rows) {
		t.Fatalf("after replay: tree height %d, %d queued; want an empty tree and %d queued",
			e.tree.RTree().Height(), len(e.run), len(rows))
	}
	words := stats.WordsByFreq()
	for i := 0; i < 20; i++ {
		p := rows[i*len(rows)/20].point
		kws := []string{words[i%10], words[10+i*7%100]}[:1+i%2]
		got, err := e.TopK(10, p, kws...)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteTopKRows(rows, 10, p, kws)
		if fmt.Sprint(resultIDs(got)) != fmt.Sprint(want) {
			t.Fatalf("TopK(%v, %v) = %v, brute force %v", p, kws, resultIDs(got), want)
		}
	}
	checkPacked(t, e)
}

// bruteTopKRows answers a distance-first top-k over rows (ID = index) by
// brute force; ties break by ID.
func bruteTopKRows(rows []packRow, k int, p []float64, kws []string) []uint64 {
	type cand struct {
		id   uint64
		dist float64
	}
	var cands []cand
	for i, r := range rows {
		if !textutil.ContainsAll(r.text, kws) {
			continue
		}
		var d float64
		for j := range p {
			d += (r.point[j] - p[j]) * (r.point[j] - p[j])
		}
		cands = append(cands, cand{uint64(i), math.Sqrt(d)})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].dist != cands[b].dist {
			return cands[a].dist < cands[b].dist
		}
		return cands[a].id < cands[b].id
	})
	ids := make([]uint64, 0, k)
	for i := 0; i < len(cands) && i < k; i++ {
		ids = append(ids, cands[i].id)
	}
	return ids
}

func resultIDs(rs []Result) []uint64 {
	ids := make([]uint64, len(rs))
	for i, r := range rs {
		ids[i] = r.Object.ID
	}
	return ids
}
