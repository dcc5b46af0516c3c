package spatialkeyword

import (
	"spatialkeyword/internal/core"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// Streaming query API. Search, SearchArea, and SearchRanked return pull
// iterators over the paper's incremental traversals; TopK and TopKRanked are
// the first k results of Search and SearchRanked. Callers that merge
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
	// return; ok is false when nothing is left.
	PeekBound() (float64, bool)
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
	Stats() QueryStats
	Close()
}

// query is what the two stream kinds share: the engine's shared lock and the
// disk I/O bracket, both settled by finish.
type query struct {
	e       *Engine
	ioStart storage.Stats // the devices' counters when the query opened
	closed  bool          // finish has run
	final   QueryStats    // the query's work, fixed by finish
}

// begin takes the shared lock (flushing pending adds first) and opens the
// query's I/O bracket.
func (e *Engine) begin() (query, error) {
	if err := e.rlock(); err != nil {
		return query{}, err
	}
	return query{e: e, ioStart: e.ioCounters()}, nil
}

// stats is the traversal's work record with the blocks read so far added.
func (q *query) stats(st core.SearchStats) QueryStats {
	if q.closed {
		return q.final
	}
	io := q.e.ioCounters().Sub(q.ioStart)
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
// TopK. Pending adds are flushed first.
func (e *Engine) Search(point []float64, keywords ...string) (ResultStream, error) {
	if err := e.checkPoint(point); err != nil {
		return nil, err
	}
	q, err := e.begin()
	if err != nil {
		return nil, err
	}
	return &SearchIter{query: q, it: e.tree.Search(geo.NewPoint(point...), keywords)}, nil
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
	return &SearchIter{query: q, it: e.tree.SearchArea(area, keywords)}, nil
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
// idf). The returned DocFreq reads the live vocabulary under the engine's
// shared lock, so it must not be called while the caller holds a stream
// open on this engine.
func (e *Engine) Corpus() CorpusStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return CorpusStats{NumDocs: e.vocab.NumDocs(), Analyzer: e.an, DocFreq: func(word string) int {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return e.vocab.DocFreq(word)
	}}
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
	if err := e.checkPoint(point); err != nil {
		return nil, err
	}
	q, err := e.begin()
	if err != nil {
		return nil, err
	}
	if cs == nil {
		// The stream already holds the shared lock, so the scorer reads the
		// vocabulary directly; Corpus().DocFreq would take the lock again.
		cs = &CorpusStats{NumDocs: e.vocab.NumDocs(), DocFreq: e.vocab.DocFreq}
	}
	scorer := irscore.NewScorer(cs.NumDocs, cs.DocFreq).WithAnalyzer(e.an)
	it := e.tree.SearchRanked(geo.NewPoint(point...), keywords, core.GeneralOptions{
		Scorer:       scorer,
		Combiner:     irscore.DistanceDiscount{Scale: 100},
		RequireMatch: true,
	})
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
// engine's shared lock and must not call back into the engine. Pending adds
// are flushed first.
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
	stop := e.MeterIOStats()
	return func() (uint64, uint64) {
		io := stop()
		return io.Random(), io.Sequential()
	}
}

// MeterIOStats is MeterIO returning the full device statistics, for
// in-module instrumentation that feeds a storage.CostModel (external
// importers cannot name the internal type; use MeterIO instead).
func (e *Engine) MeterIOStats() func() storage.Stats {
	start := e.ioCounters()
	return func() storage.Stats { return e.ioCounters().Sub(start) }
}

// ioCounters sums the index and object devices' access counters.
func (e *Engine) ioCounters() storage.Stats {
	return e.idxDisk.Stats().Add(e.objDisk.Stats())
}
