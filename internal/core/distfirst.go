package core

import (
	"slices"
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
// (the Distance-First IR²-Tree algorithm, Figure 8) that tests its
// candidates in rows. Results stream out in non-decreasing distance order;
// pull as many as needed. The traversal is the incremental NN algorithm
// with one addition: an entry is enqueued only if its signature covers the
// query signature (built per level, since a MIR²-Tree sizes signatures by
// level), which prunes whole subtrees that cannot contain all the query
// keywords. rows must hold every row the tree does.
func (x *IR2Tree) Search(p geo.Point, keywords []string, rows *Rows) *ResultIter {
	r := newResultIter(x, x.an.Keywords(keywords), rows)
	r.at = p
	r.it = x.rt.NearestNeighbors(p, r.sigs.at)
	return r
}

// newResultIter builds the result stream of a query for kws, with its
// pooled scratch, the keywords' term IDs in rows, ascending, and its
// per-level query signatures, W = Signature(Q.t), built lazily from the
// keywords' hashes in rows: the traversal looks its level's up once per
// expanded node. The containment check of IR2TopK line 21 is a term-ID test
// in the table, so a false positive is dropped without reading its row. The
// caller starts the traversal, r.it, with r.sigs.at.
func newResultIter(x *IR2Tree, kws []string, rows *Rows) *ResultIter {
	r := &ResultIter{x: x, sc: takeScratch(), rows: rows}
	r.ids = rows.termIDs(r.sc.ids[:0], kws)
	r.sc.hashes = rows.hashes(r.sc.hashes[:0], kws, r.ids)
	r.sigs = levelSigs{x: x, hashes: r.sc.hashes}
	slices.Sort(r.ids)
	r.sc.ids = r.ids
	return r
}

// queryScratch is a query iterator's pooled working space: the corner
// points its scorer decodes MBRs into, the keywords' term IDs in the row
// table and their signature hashes, and, for the general ranked query, one
// survivor mask per keyword.
// An iterator takes one when it is built and returns it in Close; one that
// is never closed only loses the reuse.
type queryScratch struct {
	lo, hi geo.Point
	ids    []uint32
	hashes []uint64 // the keywords' signature hashes
	masks  []uint64
	ranked rankedState // SearchRanked's, kept between ranked queries
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
	x     *IR2Tree
	it    *rtree.Iter
	sc    *queryScratch
	stats SearchStats
	// rows is the engine's row table, and ids the keywords' term IDs in it,
	// ascending.
	rows   *Rows
	ids    []uint32
	sigs   levelSigs // the traversal's query signatures
	passed uint64    // the last row test found to hold every keyword, plus one
	// The query's geometry, which PushRun keys a queued row by: the point of
	// a distance-first query, else the area, which a range query (within)
	// also filters by.
	at     geo.Point
	area   geo.Rect
	within bool
}

// Next returns the next object containing all query keywords, ordered by
// distance. ok is false when the index is exhausted. Candidates whose
// signatures matched spuriously are detected in the row table (the
// containment check of IR2TopK line 21), counted in Stats().FalsePositives,
// and skipped. A row is read, and counted in Stats().ObjectsLoaded, only
// when it is returned; a candidate the table does not hold is an error.
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
		holds, err := r.test(ref)
		if err != nil {
			return Result{}, false, err
		}
		if !holds {
			r.stats.FalsePositives++
			continue
		}
		obj, err := r.x.store.GetByID(objstore.ID(ref))
		if err != nil {
			return Result{}, false, err
		}
		r.stats.ObjectsLoaded++
		fillTraversal(&r.stats, r.it.TraversalStats())
		return Result{Object: obj, Dist: dist}, true, nil
	}
}

// test reports whether the row at ref holds every keyword. It remembers the
// last row that passed: PeekBound and Next test the queue's head more than
// once (a merge peeks at every lane per step), and a distance-first
// traversal queues a row once.
//
//skvet:hotpath
func (r *ResultIter) test(ref uint64) (bool, error) {
	if r.passed == ref+1 {
		return true, nil
	}
	id, err := rowID(r.rows, ref)
	if err != nil {
		return false, err
	}
	if !r.rows.Terms.HoldsAll(id, r.ids) {
		return false, nil
	}
	r.passed = ref + 1
	return true, nil
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
// object's exact distance or a subtree MBR's minimum distance). A false
// positive at the head is dropped first, so the bound is a result's
// distance whenever an object heads the queue (a row the table does not
// hold stays for Next to report). ok is false when the traversal is
// exhausted. The shard merge uses it to pull only from the
// shard whose best remaining candidate is the global best, and FirstK to
// stop at the k-th distance.
func (r *ResultIter) PeekBound() (float64, bool) {
	for {
		ref, _, ok := r.it.PeekObject()
		if !ok {
			break
		}
		if holds, err := r.test(ref); err != nil || holds {
			break
		}
		r.it.DropObject()
		r.stats.FalsePositives++
	}
	return r.it.PeekScore()
}

// Settle expands the traversal until an object heads its queue — the nodes
// Next would expand on its way to the next result — so that PeekBound is
// then that result's distance exactly. It reads no row.
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
// containing all keywords, closest to p first (IR2TopK, Figure 8). It is
// the paper's algorithm as the experiments run it: every candidate the
// signature-pruned traversal pops is read by its row pointer and tested
// (see paperTopK), so x is a tree New built.
func (x *IR2Tree) TopK(k int, p geo.Point, keywords []string) ([]Result, SearchStats, error) {
	kws := x.an.Keywords(keywords)
	sigs := &levelSigs{x: x, hashes: wordHashes(kws)}
	return paperTopK(x.rt.NearestNeighbors(p, sigs.at), x.store, x.an, k, kws)
}

// paperTopK is the top-k loop of the paper's distance-first algorithms,
// IR2TopK (Figure 8) and the R-Tree baseline (Section 5.1), which differ
// only in whether the incremental NN traversal it pops prunes by signature:
// it reads every candidate from the object file and keeps it if it holds
// every keyword of kws (normalized by an), until k are kept or the
// traversal is exhausted. A rejected row is counted in FalsePositives, and
// is never materialized (see objstore.GetFiltered).
func paperTopK(it *rtree.Iter, store *objstore.Store, an *textutil.Analyzer, k int, kws []string) ([]Result, SearchStats, error) {
	defer it.Close()
	row := rowPool.Get().(*objstore.RowScratch)
	defer rowPool.Put(row)
	accept := func(text []byte) bool { return an.ContainsTermsBytes(text, kws) }
	var out []Result
	var stats SearchStats
	for len(out) < k {
		ref, dist, ok, err := it.Next()
		if err != nil {
			return nil, stats, err
		}
		if !ok {
			break
		}
		obj, ok, err := store.GetFiltered(objstore.Ptr(ref), row, accept)
		if err != nil {
			return nil, stats, err
		}
		stats.ObjectsLoaded++
		if !ok {
			stats.FalsePositives++
			continue
		}
		out = append(out, Result{Object: obj, Dist: dist})
	}
	fillTraversal(&stats, it.TraversalStats())
	return out, stats, nil
}

// rowPool holds the buffers paperTopK reads its candidates into.
var rowPool = sync.Pool{New: func() any { return new(objstore.RowScratch) }}

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

// Delete removes the object at point whose row pointer is ref.
func (b *RTreeBaseline) Delete(point geo.Point, ref uint64) (bool, error) {
	return b.rt.Delete(ref, geo.PointRect(point))
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
// the tree is exhausted (paperTopK with no signature to prune by).
func (b *RTreeBaseline) TopK(k int, p geo.Point, keywords []string) ([]Result, SearchStats, error) {
	var plain *textutil.Analyzer // nil: plain tokenization
	return paperTopK(b.rt.NearestNeighbors(p, nil), b.store, plain, k, plain.Keywords(keywords))
}

// SetTrace installs a traversal trace hook on the underlying search (see
// rtree.TraceEvent): every expand, enqueue, prune, and emit step is
// reported, reproducing the style of the paper's Example 3 walk-through.
// Install before the first Next call.
func (r *ResultIter) SetTrace(fn func(rtree.TraceEvent)) { r.it.SetTrace(fn) }
