package spatialkeyword

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"spatialkeyword/internal/core"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/sigfile"
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
	if q := len(e.run); rt.Len()+q != e.live || (rt.Height() > 0 && q >= rt.Capacity(0)) {
		t.Fatalf("tree holds %d objects and the run %d, engine has %d live", rt.Len(), q, e.live)
	}
}

// CheckTree is checkTree for the external tests.
var CheckTree = checkTree

// The runs checkRuns requires beyond the bounds every run keeps.
const (
	RunsFit   = iota // the bounds alone
	RunsTight        // what BulkLoad allocates
)

// checkRuns holds every node of e's tree to its run: the blocks its header
// and entries fill at least and its capacity run at most, and exactly the
// one want names.
func checkRuns(t *testing.T, e *Engine, want int) {
	t.Helper()
	rt := e.tree.RTree()
	if err := rt.VisitNodes(func(n *rtree.Node) error {
		filled, capacity := rt.RunFor(n.Level(), n.NumEntries()), rt.RunFor(n.Level(), rt.Capacity(n.Level()))
		if n.Run() < filled || n.Run() > capacity ||
			want == RunsTight && n.Run() != filled {
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
	return root.Run(), rt.RunFor(root.Level(), rt.Capacity(root.Level()))
}

// ShortParentPoint returns the point of an object entry that no other node
// of its level holds, at every level below the root, in a leaf whose parent
// is on a run shorter than its capacity: an insert at the point descends to
// that leaf, and the entry a split of it adds goes to that parent. ok is
// false when there is none.
func ShortParentPoint(e *Engine) (point []float64, ok bool) {
	rt := e.tree.RTree()
	var levels [][]*rtree.Node
	var parents []*rtree.Node // level-1 nodes on short runs
	if err := rt.VisitNodes(func(n *rtree.Node) error {
		for len(levels) <= n.Level() {
			levels = append(levels, nil)
		}
		levels[n.Level()] = append(levels[n.Level()], n)
		if n.Level() == 1 && n.Run() < rt.RunFor(1, rt.Capacity(1)) {
			parents = append(parents, n)
		}
		return nil
	}); err != nil {
		panic(err)
	}
	for _, parent := range parents {
		for c := 0; c < parent.NumEntries(); c++ {
			child, _, _ := parent.Entry(c)
			leaf, err := rt.LoadNode(storage.BlockID(child))
			if err != nil {
				panic(err)
			}
			for i := 0; i < leaf.NumEntries(); i++ {
				_, r, _ := leaf.Entry(i)
				own := true
				for _, nodes := range levels[:len(levels)-1] {
					own = own && len(nodesHolding(nodes, r.Lo)) == 1
				}
				if own {
					return r.Lo, true
				}
			}
		}
	}
	return nil, false
}

// InteriorRuns returns how many of e's nodes above the leaves are on runs
// shorter than their capacity run, which an insert can outgrow, and how many
// are on their capacity run.
func InteriorRuns(e *Engine) (short, full int) {
	rt := e.tree.RTree()
	if err := rt.VisitNodes(func(n *rtree.Node) error {
		switch {
		case n.Level() == 0:
		case n.Run() < rt.RunFor(n.Level(), rt.Capacity(n.Level())):
			short++
		default:
			full++
		}
		return nil
	}); err != nil {
		panic(err)
	}
	return short, full
}

// nodesHolding returns the nodes whose MBR holds p.
func nodesHolding(leaves []*rtree.Node, p geo.Point) []*rtree.Node {
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

// LeafCapacity is the leaf capacity of the tree an engine with cfg builds:
// the rows its queued run holds at most.
func LeafCapacity(cfg Config) int {
	e, err := NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	return e.tree.RTree().Capacity(0)
}

// IndexIO returns the block accesses of e's index device so far.
func IndexIO(e *Engine) storage.Stats { return e.idxDisk.Stats() }

// TreeShape returns the node count and height of e's tree.
func TreeShape(e *Engine) (nodes, height int) {
	return e.tree.RTree().NumNodes(), e.tree.RTree().Height()
}

// LeafLayout returns the capacity of e's leaves and the blocks a full one
// takes.
func LeafLayout(e *Engine) (capacity, blocks int) {
	rt := e.tree.RTree()
	return rt.Capacity(0), rt.RunFor(0, rt.Capacity(0))
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

// checkServedTree walks the served engine's tree and requires what
// TestServedLeavesMatchStoredPayloads says of it: every invariant; leaves
// of 170 entries, each leaf one block, a full one too; each entry its row's
// point; each leaf's signature columns those of its rows' DocSignatures.
func checkServedTree(t *testing.T, step string, served *Engine) {
	t.Helper()
	a := served.tree.RTree()
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if got := a.Capacity(0); got != 170 {
		t.Fatalf("%s: a served leaf holds %d entries, want 170", step, got)
	}
	if got := a.RunFor(0, a.Capacity(0)); got != 1 {
		t.Fatalf("%s: a full served leaf takes %d blocks", step, got)
	}
	leaf := served.coreOptions().LeafSignature
	err := a.VisitNodes(func(n *rtree.Node) error {
		if n.Level() > 0 {
			return nil
		}
		if n.Run() != 1 {
			return fmt.Errorf("served leaf %d of %d entries on a run of %d blocks", n.ID(), n.NumEntries(), n.Run())
		}
		sigs := make([]sigfile.Signature, n.NumEntries())
		for i := range sigs {
			id, rect, aux := n.Entry(i)
			obj, err := served.store.GetByID(objstore.ID(id))
			if err != nil {
				return err
			}
			sigs[i] = leaf.DocSignature(served.an.Unique(obj.Text))
			if !rect.Lo.Equal(obj.Point) || !rect.Hi.Equal(obj.Point) || !bytes.Equal(aux, sigs[i]) {
				return fmt.Errorf("leaf %d entry %d: %v %x; its row's point %v, its words' signature %x",
					n.ID(), i, rect, aux, obj.Point, sigs[i])
			}
		}
		return checkColumns(a, n.ID(), sigs, leaf.LengthBytes)
	})
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// checkColumns requires leaf id of tree a to build the signature columns of
// sigs, its entries' signatures: the MatchMask of a query of each single
// bit is the entries whose signature has it.
func checkColumns(a *rtree.Tree, id storage.BlockID, sigs []sigfile.Signature, length int) error {
	pn, err := a.LoadPacked(id)
	if err != nil {
		return err
	}
	mask := make([]uint64, a.MaskWords())
	for bit := 0; bit < length*8; bit++ {
		sig := make(sigfile.Signature, length)
		sig[bit/8] = 1 << (bit % 8)
		q := sigfile.MakeSig64(sig)
		want := make([]uint64, (len(sigs)+63)/64)
		for i, s := range sigs {
			if s[bit/8]&(1<<(bit%8)) != 0 {
				want[i/64] |= 1 << (i % 64)
			}
		}
		if got := pn.MatchMask(&q, mask); !slices.Equal(got, want) {
			return fmt.Errorf("leaf %d column %d is %x, its rows' %x", id, bit, got, want)
		}
	}
	return nil
}

// CheckServedTree is checkServedTree for the external tests.
var CheckServedTree = checkServedTree

// QueuedRows returns how many rows wait in e's run.
func QueuedRows(e *Engine) int { return len(e.run) }
