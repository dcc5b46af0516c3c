package spatialkeyword

import (
	"cmp"
	"slices"

	"spatialkeyword/internal/core"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// Streaming query API. Search, SearchArea, SearchWithin and SearchRanked
// return pull iterators over the paper's incremental traversals; TopK,
// TopKRanked and WithinArea are FirstK of Search, SearchRanked and
// SearchWithin. Callers that merge
// several engines' result streams (see internal/shard) or filter past k
// (see internal/skql) consume exactly as many results as they need and
// inspect the next candidate's bound without loading it.
//
// A stream holds the engine's shared lock from open until it ends — Next
// reports exhaustion or an error — or is closed, whichever comes first:
// writers wait for it, and its goroutine must not call the same engine until
// then. A stream abandoned part-way must be closed, or it blocks every
// writer; closing one that has already ended is harmless.

// ResultStream is a distance-first stream as every backend serves it (see
// Reader): *SearchIter for one engine, a best-first merge of the shards'
// streams for a sharded one. Results arrive in non-decreasing distance
// order; the order within a run of equal distances is the backend's own.
type ResultStream interface {
	// Next returns the next result; ok is false once the stream has ended.
	Next() (Result, bool, error)
	// PeekBound is a lower bound on the distance of everything Next can still
	// return; ok is false when nothing is left. It reads nothing.
	PeekBound() (float64, bool)
	// Settle does the traversal work Next would do on its way to the next
	// result, short of reading it, so that PeekBound is then the next
	// result's key exactly: FirstK settles a bound that ties the k-th key,
	// so that it reads only a result that ties too.
	Settle() error
	// SetTrace installs a traversal trace callback; call before the first Next.
	SetTrace(fn func(rtree.TraceEvent))
	// Stats is the work done so far, and after Close the query's total.
	Stats() QueryStats
	// Close ends the query and releases its locks; closing twice is harmless.
	Close()
}

// RankedStream is ResultStream's scored counterpart: results arrive in
// non-increasing score order and PeekBound is an upper bound on the score of
// everything still to come.
type RankedStream interface {
	Next() (RankedResult, bool, error)
	PeekBound() (float64, bool)
	Settle() error
	Stats() QueryStats
	Close()
}

// FirstK is the top-k cut of a best-first stream, the one every backend and
// SKQL take: it pulls s until nothing left can tie the k-th kept key, orders
// what it kept by key and then smallest object ID — distance ascending for a
// Result stream, score descending for a RankedResult stream — and cuts to k.
// A bound that ties the k-th key is settled first (Settle), so the results
// pulled past the k-th are exact ties. keep, when not nil, filters results
// as they are pulled: a rejected result neither counts towards k nor sets
// the k-th key. The results reuse dst's storage. s is left open.
func FirstK[R Result | RankedResult](dst []R, s interface {
	Next() (R, bool, error)
	PeekBound() (float64, bool)
	Settle() error
}, k int, keep func(R) bool) ([]R, error) {
	out := dst[:0]
	if k <= 0 {
		return out, nil
	}
	for {
		if len(out) >= k {
			// Pulled best first, so out[k-1] holds the k-th key.
			kth, asc, _ := rank(&out[k-1])
			bound, ok := s.PeekBound()
			if ok && !before(asc, kth, bound) {
				if err := s.Settle(); err != nil {
					return nil, err
				}
				bound, ok = s.PeekBound()
			}
			if !ok || before(asc, kth, bound) {
				break
			}
		}
		r, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if keep == nil || keep(r) {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(a, b R) int {
		ka, asc, ia := rank(&a)
		kb, _, ib := rank(&b)
		if ka != kb {
			if before(asc, ka, kb) {
				return -1
			}
			return 1
		}
		return cmp.Compare(ia, ib)
	})
	return out[:min(k, len(out))], nil
}

// rank is a result's place in its stream's order: its key, whether smaller
// keys come first, and the object ID that breaks a tie.
func rank[R Result | RankedResult](r *R) (key float64, asc bool, id uint64) {
	if d, ok := any(r).(*Result); ok {
		return d.Dist, true, d.Object.ID
	}
	s := any(r).(*RankedResult)
	return s.Score, false, s.Object.ID
}

// before reports whether key a strictly beats key b.
func before(asc bool, a, b float64) bool {
	if asc {
		return a < b
	}
	return a > b
}

// query is what the two stream kinds share: the engine's shared lock and the
// disk I/O bracket, both settled by finish.
type query struct {
	e       *Engine
	ioStart storage.Stats // the devices' counters when the query opened
	closed  bool          // finish has run
	final   QueryStats    // the query's work, fixed by finish
}

// begin takes the shared lock (with every queued row readable, see rlock)
// and opens the query's I/O bracket.
func (e *Engine) begin() (query, error) {
	if err := e.rlock(); err != nil {
		return query{}, err
	}
	return query{e: e, ioStart: e.IOStats()}, nil
}

// stats is the traversal's work record with the blocks read so far added.
func (q *query) stats(st core.SearchStats) QueryStats {
	if q.closed {
		return q.final
	}
	io := q.e.IOStats().Sub(q.ioStart)
	st.BlocksRandom, st.BlocksSequential = io.Random(), io.Sequential()
	return QueryStats{Work: st}
}

// finish fixes the query's stats and releases the shared lock — whether or
// not the stream was drained.
func (q *query) finish(st core.SearchStats) {
	if q.closed {
		return
	}
	q.final = q.stats(st)
	q.closed = true
	q.e.mu.RUnlock()
}

// SearchIter streams distance-first results in non-decreasing distance
// order, skipping deleted objects.
type SearchIter struct {
	query
	it *core.ResultIter
}

// Search starts an incremental distance-first query: the stream behind
// TopK. The queued rows that hold every keyword enter its frontier beside
// the tree's root (core.ResultIter.PushRun).
func (e *Engine) Search(point []float64, keywords ...string) (ResultStream, error) {
	if err := CheckPoint(point); err != nil {
		return nil, err
	}
	q, err := e.begin()
	if err != nil {
		return nil, err
	}
	return e.searchIter(q, e.tree.Search(geo.NewPoint(point...), keywords)), nil
}

// searchIter wraps a distance-first traversal as the engine's stream: it
// tests candidates in the row table, and the queued rows are pushed on its
// frontier.
func (e *Engine) searchIter(q query, it *core.ResultIter) *SearchIter {
	it.UseRows(&e.rows)
	it.PushRun(e.run)
	return &SearchIter{query: q, it: it}
}

// SearchArea starts an incremental area-distance query — the query-area
// variant the paper notes for the incremental NN algorithm ("an area could be
// used instead" of the point). Objects inside the rectangle have distance
// zero.
func (e *Engine) SearchArea(lo, hi []float64, keywords ...string) (ResultStream, error) {
	area, err := e.validateArea(lo, hi)
	if err != nil {
		return nil, err
	}
	q, err := e.begin()
	if err != nil {
		return nil, err
	}
	return e.searchIter(q, e.tree.SearchArea(area, keywords)), nil
}

// Next returns the next live object containing every keyword. ok is false
// when the index is exhausted or the stream is closed; exhaustion and errors
// end the query as Close does.
func (s *SearchIter) Next() (Result, bool, error) {
	for !s.closed {
		r, ok, err := s.it.Next()
		if err != nil || !ok {
			s.Close()
			return Result{}, false, err
		}
		if s.e.deleted[uint64(r.Object.ID)] {
			continue
		}
		return Result{Object: publicObject(r.Object), Dist: r.Dist}, true, nil
	}
	return Result{}, false, nil
}

// PeekBound returns a lower bound on the distance of every result the
// iterator can still produce; ok is false when it is exhausted.
func (s *SearchIter) PeekBound() (float64, bool) { return s.it.PeekBound() }

// Settle expands the traversal up to the next result without reading it,
// so that PeekBound is then its distance exactly (core.ResultIter.Settle).
func (s *SearchIter) Settle() error { return s.it.Settle() }

// SetTrace installs a traversal trace callback (rtree.TraceEvent.String
// renders the events as SKQL's EXPLAIN ANALYZE prints them). Call before
// the first Next; fn must not retain the event. A nil fn removes the
// callback.
func (s *SearchIter) SetTrace(fn func(rtree.TraceEvent)) { s.it.SetTrace(fn) }

// Stats returns the work done so far: traversal counters and the engine's
// disk blocks since the stream opened. After Close it is the query's total.
func (s *SearchIter) Stats() QueryStats { return s.stats(s.it.Stats()) }

// Close ends the query: it releases the engine's shared lock and returns the
// traversal's pooled scratch. Closing a stream that has already ended, or
// closing twice, is harmless.
func (s *SearchIter) Close() {
	s.finish(s.it.Stats())
	s.it.Close()
}

// publicObject converts a stored object to the public shape.
func publicObject(o objstore.Object) Object {
	return Object{ID: uint64(o.ID), Point: o.Point, Text: o.Text}
}

// CorpusStats describes the document corpus a ranked query scores against.
// A single engine uses its own vocabulary; a sharded engine injects
// corpus-wide statistics so every shard ranks with the same idf weights.
type CorpusStats struct {
	// NumDocs is the number of documents ever indexed (including deleted
	// ones, matching Engine semantics: deletions do not rewrite idf).
	NumDocs int
	// DocFreq returns the number of documents containing the word.
	DocFreq func(word string) int
	// Analyzer is the text pipeline the corpus was normalised with (nil is
	// the plain one): DocFreq is keyed by its output, so whatever looks a
	// query term up — SKQL's planner, its sidecar index and residual
	// filters, a geofence's keywords — passes the term and the rows it
	// compares against through it first. Ranked scoring ignores it: an
	// engine scores with its own pipeline, which is the same one.
	Analyzer *textutil.Analyzer
}

// Corpus returns the engine's own corpus statistics: document count
// and per-word document frequencies from its vocabulary (both include
// deleted documents, matching idf semantics — deletions do not rewrite
// idf). The returned DocFreq is DocFreq, bound once per engine, so a call
// allocates nothing; it takes the engine's shared lock, so it must not be
// called while the caller holds a stream open on this engine.
func (e *Engine) Corpus() CorpusStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return CorpusStats{NumDocs: e.rows.Vocab.NumDocs(), Analyzer: e.an, DocFreq: e.docFreq}
}

// DocFreq returns the number of documents ever added that hold word (see
// Corpus). It takes the engine's shared lock.
func (e *Engine) DocFreq(word string) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.rows.Vocab.DocFreq(word)
}

// RankedSearchIter streams general ranked results in non-increasing score
// order, skipping deleted objects.
type RankedSearchIter struct {
	query
	it *core.RankedIter
}

// SearchRanked starts an incremental general ranked query: the stream
// behind TopKRanked, scored against the engine's own corpus statistics.
func (e *Engine) SearchRanked(point []float64, keywords ...string) (RankedStream, error) {
	return e.searchRanked(nil, point, keywords)
}

// SearchRankedWith is SearchRanked scoring against the given corpus
// statistics instead of the engine's own vocabulary.
func (e *Engine) SearchRankedWith(cs CorpusStats, point []float64, keywords ...string) (RankedStream, error) {
	return e.searchRanked(&cs, point, keywords)
}

func (e *Engine) searchRanked(cs *CorpusStats, point []float64, keywords []string) (RankedStream, error) {
	if err := CheckPoint(point); err != nil {
		return nil, err
	}
	q, err := e.begin()
	if err != nil {
		return nil, err
	}
	if cs == nil {
		// The stream already holds the shared lock, so the scorer reads the
		// vocabulary directly; Corpus().DocFreq would take the lock again.
		cs = &CorpusStats{NumDocs: e.rows.Vocab.NumDocs(), DocFreq: e.rows.Vocab.DocFreq}
	}
	scorer := irscore.NewScorer(cs.NumDocs, cs.DocFreq).WithAnalyzer(e.an)
	it := e.tree.SearchRanked(point, keywords, core.GeneralOptions{Scorer: scorer}) // copies point
	it.UseRows(&e.rows)
	it.PushRun(e.run)
	return &RankedSearchIter{query: q, it: it}, nil
}

// Next returns the next best-scoring live object. ok is false when the
// index is exhausted or the stream is closed; exhaustion and errors end the
// query as Close does.
func (s *RankedSearchIter) Next() (RankedResult, bool, error) {
	for !s.closed {
		r, ok, err := s.it.Next()
		if err != nil || !ok {
			s.Close()
			return RankedResult{}, false, err
		}
		if s.e.deleted[uint64(r.Object.ID)] {
			continue
		}
		return RankedResult{
			Object:  publicObject(r.Object),
			Dist:    r.Dist,
			IRScore: r.IRScore,
			Score:   r.Score,
		}, true, nil
	}
	return RankedResult{}, false, nil
}

// PeekBound returns an upper bound on the score of every result the
// iterator can still produce; ok is false when it is exhausted.
func (s *RankedSearchIter) PeekBound() (float64, bool) { return s.it.PeekBound() }

// Settle is SearchIter.Settle for a ranked stream: PeekBound is then the
// next result's exact score.
func (s *RankedSearchIter) Settle() error { return s.it.Settle() }

// Stats is SearchIter.Stats for a ranked stream.
func (s *RankedSearchIter) Stats() QueryStats { return s.stats(s.it.Stats()) }

// Close is SearchIter.Close for a ranked stream.
func (s *RankedSearchIter) Close() {
	s.finish(s.it.Stats())
	s.it.Close()
}

// NumObjects returns the number of rows ever appended to the engine's
// object file, including deleted ones. Valid object IDs are [0, NumObjects).
func (e *Engine) NumObjects() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store.NumObjects()
}

// Scan visits every row of the object file in ID order — including deleted
// rows, which still carry the Text that feeds corpus statistics (idf). The
// caller can filter with IsDeleted once Scan has returned: fn runs under the
// engine's shared lock and must not call back into the engine.
func (e *Engine) Scan(fn func(Object) error) error {
	if err := e.rlock(); err != nil {
		return err
	}
	defer e.mu.RUnlock()
	return e.store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
		return fn(publicObject(o))
	})
}

// IsDeleted reports whether the object with the given ID has been deleted.
// Unknown IDs are not deleted.
func (e *Engine) IsDeleted(id uint64) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.deleted[id]
}

// MeterIO snapshots the engine's disk counters; the returned function
// reports the random and sequential block accesses performed since the
// snapshot. Concurrent queries on the same engine share the counters, so
// per-query attribution is exact only when the engine runs one query at a
// time. The devices count their own accesses; neither call takes the
// engine's lock.
func (e *Engine) MeterIO() func() (random, sequential uint64) {
	start := e.IOStats()
	return func() (uint64, uint64) {
		io := e.IOStats().Sub(start)
		return io.Random(), io.Sequential()
	}
}

// IOStats returns the index and object devices' access counters summed,
// for in-module instrumentation that meters or feeds a storage.CostModel
// (external importers cannot name the internal type; use MeterIO instead).
// It takes no lock.
func (e *Engine) IOStats() storage.Stats {
	return e.idxDisk.Stats().Add(e.objDisk.Stats())
}
