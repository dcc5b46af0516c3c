package core

import (
	"sync"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/obs"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// Result is one answer of a distance-first top-k spatial keyword query.
type Result struct {
	Object objstore.Object
	Dist   float64
}

// SearchStats reports the work performed by a query: the one work record
// (see obs.Work), of which a traversal fills the six counters it owns and
// leaves the block counts to whoever brackets the devices.
type SearchStats = obs.Work

// fillTraversal copies the underlying traversal's counters into s — the
// boundary between the generic R-Tree's counters and the work record.
func fillTraversal(s *SearchStats, t rtree.TraversalStats) {
	s.NodesLoaded = t.NodesLoaded
	s.EntriesPruned = t.EntriesPruned
	s.NodesEnqueued = t.NodesEnqueued
	s.ObjectsEnqueued = t.ObjectsEnqueued
}

// Search starts an incremental distance-first top-k spatial keyword query
// (the Distance-First IR²-Tree algorithm, Figure 8). Results stream out in
// non-decreasing distance order; pull as many as needed. The traversal is
// the incremental NN algorithm with one addition: an entry is enqueued only
// if its signature covers the query signature (built per level, since a
// MIR²-Tree sizes signatures by level), which prunes whole subtrees that
// cannot contain all the query keywords.
func (x *IR2Tree) Search(p geo.Point, keywords []string) *ResultIter {
	kws := x.an.Keywords(keywords)
	// Per-level query signatures, built lazily: W = Signature(Q.t). The
	// traversal looks its level's up once per expanded node.
	sigs := &levelSigs{x: x, kws: kws}
	r := newResultIter(x, kws)
	r.at = p
	r.it = x.rt.NearestNeighbors(p, sigs.at)
	return r
}

// newResultIter builds the result stream of a query for kws, with its
// pooled scratch and the store's filtered object loader: without a row
// table, the containment check of IR2TopK line 21 runs on the raw text
// field, so false positives are rejected before the object is materialized
// (see objstore.GetFiltered). The caller starts the traversal, r.it.
func newResultIter(x *IR2Tree, kws []string) *ResultIter {
	r := &ResultIter{x: x, keywords: kws, sc: takeScratch()}
	r.accept = func(text []byte) bool {
		return r.x.an.ContainsTermsBytes(text, r.keywords)
	}
	return r
}

// queryScratch is a query iterator's pooled working space: the buffers its
// candidate rows are read into, the corner points its scorer decodes MBRs
// into, the keywords' term IDs in a row table (UseRows) and, for the general
// ranked query, one survivor mask per keyword. An
// iterator takes one when it is built and returns it in Close; one that is
// never closed only loses the reuse.
type queryScratch struct {
	row    objstore.RowScratch
	lo, hi geo.Point
	ids    []uint32
	masks  []uint64
}

var scratchPool = sync.Pool{New: func() any {
	return &queryScratch{lo: make(geo.Point, geo.Dims), hi: make(geo.Point, geo.Dims)}
}}

// takeScratch returns a pooled scratch.
func takeScratch() *queryScratch { return scratchPool.Get().(*queryScratch) }

// putScratch returns *sc to the pool and clears it, so a closed iterator
// holds none.
func putScratch(sc **queryScratch) {
	if *sc != nil {
		scratchPool.Put(*sc)
		*sc = nil
	}
}

// ResultIter streams the results of a distance-first query.
type ResultIter struct {
	x        *IR2Tree
	it       *rtree.Iter
	keywords []string
	sc       *queryScratch
	accept   func(text []byte) bool
	stats    SearchStats
	// rows, when not nil, is the engine's row table (UseRows), and ids the
	// keywords' term IDs in it, ascending.
	rows   *Rows
	ids    []uint32
	passed uint64 // the last row test found to hold every keyword, plus one
	// The query's geometry, which PushRun keys a queued row by: the point of
	// a distance-first query, else the area, which a range query (within)
	// also filters by.
	at     geo.Point
	area   geo.Rect
	within bool
}

// Next returns the next object containing all query keywords, ordered by
// distance. ok is false when the index is exhausted. Candidates whose
// signatures matched spuriously are detected (the containment check of
// IR2TopK line 21) — in the row table when the query has one, else on the
// loaded row — counted in Stats().FalsePositives, and skipped. A row is
// read, and counted in Stats().ObjectsLoaded, when it is returned or, with
// no row table, tested.
//
//skvet:hotpath
func (r *ResultIter) Next() (Result, bool, error) {
	for {
		ref, dist, ok, err := r.it.Next()
		if err != nil {
			return Result{}, false, err
		}
		if !ok {
			fillTraversal(&r.stats, r.it.TraversalStats())
			return Result{}, false, nil
		}
		var obj objstore.Object
		if in, holds := r.test(ref); in {
			if !holds {
				r.stats.FalsePositives++
				continue
			}
			obj, err = r.x.store.Get(objstore.Ptr(ref))
			ok = true
		} else {
			obj, ok, err = r.x.store.GetFiltered(objstore.Ptr(ref), &r.sc.row, r.accept)
		}
		if err != nil {
			return Result{}, false, err
		}
		r.stats.ObjectsLoaded++
		if !ok {
			r.stats.FalsePositives++
			continue
		}
		fillTraversal(&r.stats, r.it.TraversalStats())
		return Result{Object: obj, Dist: dist}, true, nil
	}
}

// test reports whether the row table holds the row at ref and, if so,
// whether the row holds every keyword. It remembers the last row that
// passed: PeekBound and Next test the queue's head more than once (a merge
// peeks at every lane per step), and a distance-first traversal queues a
// row once.
//
//skvet:hotpath
func (r *ResultIter) test(ref uint64) (in, holds bool) {
	if r.passed == ref+1 {
		return true, true
	}
	id, in := rowID(r.rows, r.x.store, ref)
	if !in {
		return false, false
	}
	if !r.rows.Terms.HoldsAll(id, r.ids) {
		return true, false
	}
	r.passed = ref + 1
	return true, true
}

// Stats returns the work counters accumulated so far.
func (r *ResultIter) Stats() SearchStats {
	fillTraversal(&r.stats, r.it.TraversalStats())
	return r.stats
}

// Close releases the traversal's and the row reads' pooled scratch.
// Optional but cheap; the top-k helpers call it for every query they run. A
// closed traversal is exhausted, so Next reads no row after it.
func (r *ResultIter) Close() {
	r.it.Close()
	putScratch(&r.sc)
}

// PeekBound returns a lower bound on the distance of every result the
// iterator can still produce: the priority of the best queued entry (an
// object's exact distance or a subtree MBR's minimum distance). With a row
// table, a false positive at the head is dropped first, so the bound is a
// result's distance whenever an object heads the queue. ok is false when
// the traversal is exhausted. The shard merge uses it to pull only from the
// shard whose best remaining candidate is the global best, and FirstK to
// stop at the k-th distance.
func (r *ResultIter) PeekBound() (float64, bool) {
	for {
		ref, _, ok := r.it.PeekObject()
		if !ok {
			break
		}
		if in, holds := r.test(ref); !in || holds {
			break
		}
		r.it.DropObject()
		r.stats.FalsePositives++
	}
	return r.it.PeekScore()
}

// Settle expands the traversal until an object heads its queue — the nodes
// Next would expand on its way to the next result — so that PeekBound is
// then that result's distance exactly. It reads no row with a row table;
// without one it is PeekBound's bound still, as a false positive at the
// head is found only by reading it.
func (r *ResultIter) Settle() error { return settle(r.it, r.PeekBound) }

// settle expands the nodes at the head of it until an object heads the
// queue; peek, the iterator's PeekBound, drops or rescores an object at the
// head first.
func settle(it *rtree.Iter, peek func() (float64, bool)) error {
	for {
		if _, ok := peek(); !ok {
			return nil
		}
		if _, _, obj := it.PeekObject(); obj {
			return nil
		}
		if err := it.ExpandHead(); err != nil {
			return err
		}
	}
}

// TopK answers a distance-first top-k spatial keyword query: the k objects
// containing all keywords, closest to p first (IR2TopK, Figure 8).
func (x *IR2Tree) TopK(k int, p geo.Point, keywords []string) ([]Result, SearchStats, error) {
	it := x.Search(p, keywords)
	results, err := TakeK(k, it.Next)
	it.Close()
	return results, it.Stats(), err
}

// TakeK is the tree's top-k loop: IR2TopK (Fig. 8) is an incremental
// iterator, and a top-k of the tree is the first k results of a stream's
// Next, ties at the k-th key in traversal order. The engine and every layer
// above it cut with spatialkeyword.FirstK instead, which drains those ties and
// breaks them by smallest object ID.
func TakeK[T any](k int, next func() (T, bool, error)) ([]T, error) {
	var out []T
	for len(out) < k {
		r, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out, nil
}

// RTreeBaseline is the first baseline algorithm of Section 5.1: a plain
// R-Tree provides incremental nearest neighbors, and *every* returned
// object is loaded and checked against the keywords — there is no textual
// pruning, so queries whose keywords are rare retrieve many useless objects.
type RTreeBaseline struct {
	rt    *rtree.Tree
	store *objstore.Store
}

// NewRTreeBaseline creates an empty baseline index on dev over store.
// maxEntries 0 derives the capacity from the block size.
func NewRTreeBaseline(dev storage.Device, store *objstore.Store, maxEntries int) (*RTreeBaseline, error) {
	rt, err := rtree.New(dev, rtree.Config{MaxEntries: maxEntries})
	if err != nil {
		return nil, err
	}
	return &RTreeBaseline{rt: rt, store: store}, nil
}

// Insert indexes an object's location.
func (b *RTreeBaseline) Insert(obj objstore.Object, ptr objstore.Ptr) error {
	return b.rt.Insert(uint64(ptr), geo.PointRect(obj.Point), nil, nil)
}

// Delete removes an object.
func (b *RTreeBaseline) Delete(point geo.Point, ptr objstore.Ptr) (bool, error) {
	return b.rt.Delete(uint64(ptr), geo.PointRect(point))
}

// Build bulk-loads every object of the store.
func (b *RTreeBaseline) Build() error {
	return b.store.Scan(func(obj objstore.Object, ptr objstore.Ptr) error {
		return b.Insert(obj, ptr)
	})
}

// SizeBytes returns the index footprint.
func (b *RTreeBaseline) SizeBytes() int64 { return b.rt.Device().SizeBytes() }

// SizeMB returns the footprint in megabytes.
func (b *RTreeBaseline) SizeMB() float64 { return float64(b.SizeBytes()) / 1e6 }

// TopK answers a distance-first top-k spatial keyword query by filtering
// the incremental NN stream: fetch the next nearest object, load it,
// keep it only if it contains every keyword, until k results are found or
// the tree is exhausted.
func (b *RTreeBaseline) TopK(k int, p geo.Point, keywords []string) ([]Result, SearchStats, error) {
	var plain *textutil.Analyzer // nil: plain tokenization
	kws := plain.Keywords(keywords)
	it := b.rt.NearestNeighbors(p, nil)
	var results []Result
	var stats SearchStats
	for len(results) < k {
		ref, dist, ok, err := it.Next()
		if err != nil {
			return nil, stats, err
		}
		if !ok {
			break
		}
		obj, err := b.store.Get(objstore.Ptr(ref))
		if err != nil {
			return nil, stats, err
		}
		stats.ObjectsLoaded++
		if !textutil.ContainsAll(obj.Text, kws) {
			continue
		}
		results = append(results, Result{Object: obj, Dist: dist})
	}
	stats.NodesLoaded = it.NodesLoaded()
	return results, stats, nil
}

// SetTrace installs a traversal trace hook on the underlying search (see
// rtree.TraceEvent): every expand, enqueue, prune, and emit step is
// reported, reproducing the style of the paper's Example 3 walk-through.
// Install before the first Next call.
func (r *ResultIter) SetTrace(fn func(rtree.TraceEvent)) { r.it.SetTrace(fn) }
