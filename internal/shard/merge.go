package shard

import (
	"math"
	"slices"
	"sort"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/obs"
	"spatialkeyword/internal/rtree"
)

// The fan-out/merge machinery: one merge for every sharded query. A sharded
// top-k is the paper's best-first search one level up — each shard is an
// incremental stream (Search, SearchArea, SearchWithin, SearchRankedWith)
// with a bound on everything it can still produce, and the merge delivers
// the global best first. mergedStream owns what the query kinds share: the
// shard's read lock, open, pull, local→global ID translation, Close, the
// per-shard and aggregate sink records, degrade-on-storage-fault. What
// differs per kind is a topkQuery.
//
// One scheduler drives the lanes: mergedStream, a sequential best-first k-way
// merge that pulls one result at a time from the shard whose next candidate
// has the best bound and delivers it once no shard's bound beats it. It is the
// stream Search, SearchArea and SearchRanked return — one lane is a
// pass-through with ID translation — and TopK, TopKRanked and WithinArea are
// its top-k cut, spatialkeyword.FirstK, as on a single engine (topK). Per device this
// is the minimum I/O any exact merge can do, and which lane is pulled depends
// on the bounds alone, never on goroutine scheduling.
//
// Correctness of the early stop: the stream is best first, so once its bound
// is strictly worse than the k-th kept key, everything it still holds is
// strictly worse than the final k-th result and can contribute neither a
// result nor a tie. Candidates exactly at the k-th key are still taken (the
// stop test is strict), and FirstK breaks ties on the boundary key by
// smallest global ID, independent of the order the shards deliver them in.

// stream is one shard's result stream as the merge sees it — the methods
// the engine's distance and ranked streams share.
type stream[R any] interface {
	Next() (R, bool, error)
	PeekBound() (float64, bool)
	Settle() error
	Stats() spatialkeyword.QueryStats
	Close()
}

// topkQuery is what distinguishes one kind of sharded top-k from another.
type topkQuery[R any] struct {
	op          string // sink op: "topk", "ranked", "area", or "stream" when the caller pulls
	k, keywords int    // k is the record's: 0 when the caller pulls or every result is wanted
	asc         bool   // true: smallest keys are best (distances); false: largest (scores)
	open        func(*spatialkeyword.Engine) (stream[R], error)
	// at returns a result's ordering key and the address of its object ID
	// (shard-local as the stream delivers it, global once merged).
	at func(*R) (key float64, id *uint64)
	// ranked, for a ranked query, holds its pooled arguments until the
	// stream ends.
	ranked *rankedArgs
}

func distanceKey(r *spatialkeyword.Result) (float64, *uint64) { return r.Dist, &r.Object.ID }

func scoreKey(r *spatialkeyword.RankedResult) (float64, *uint64) { return r.Score, &r.Object.ID }

// before reports whether key a strictly beats key b.
func before(asc bool, a, b float64) bool {
	if asc {
		return a < b
	}
	return a > b
}

// better reports whether candidate a strictly beats b: by key, then by
// smallest global ID in both directions.
func better[R any](asc bool, a, b *item[R]) bool {
	if a.key != b.key {
		return before(asc, a.key, b.key)
	}
	return a.id < b.id
}

// mergedStream is the merge as a stream: every healthy shard is read-locked
// from open to Close, each step pulls from the lane with the best bound
// (lowest shard index on ties), and a pulled result is delivered once no
// lane's bound beats it — best first, equal keys by smallest global ID among
// those pulled. It implements spatialkeyword.ResultStream and RankedStream.
type mergedStream[R any] struct {
	s         *ShardedEngine
	q         topkQuery[R]
	start     time.Time
	agg       spatialkeyword.QueryStats // the finished lanes' work, and whether a shard was skipped
	lanes     []lane[R]                 // one per opened shard, never grown past the shard count: a lane's address is stable
	pending   []item[R]                 // pulled and not yet delivered, best first
	delivered int
	err       error // the first error that was not a shard's storage fault
	closed    bool
}

// openStream read-locks every healthy shard and opens its lane. When a lane
// cannot open for a reason other than its shard's storage, the stream comes
// back closed with that error.
func openStream[R any](s *ShardedEngine, q topkQuery[R]) (*mergedStream[R], error) {
	st := &mergedStream[R]{s: s, q: q, start: time.Now(), lanes: make([]lane[R], 0, len(s.shards))}
	for _, sh := range s.shards {
		if sh.unhealthy.Load() {
			st.agg.Degraded = true
			continue
		}
		st.lanes = append(st.lanes, lane[R]{})
		ln := &st.lanes[len(st.lanes)-1]
		st.open(ln, sh)
		st.classify(ln)
	}
	if st.err != nil {
		st.Close()
	}
	return st, st.err
}

// lane is one shard's part of a merge, from taking the shard's read lock
// (open) to releasing it (finish).
type lane[R any] struct {
	sh    *shardHandle
	it    stream[R]
	start time.Time
	r     R     // the result last pulled; a field so at's pointer costs no allocation per result
	exact bool  // settled since the last pull: PeekBound is the next result's key
	done  bool  // exhausted, failed or finished: not to be pulled again
	err   error // why the lane failed, if it did
}

// open read-locks the shard and opens its stream. Every opened lane must be
// finished. The shard's lock is taken before the engine's (the stream holds
// Engine.mu shared until it ends), and s.mu is never held across either.
func (st *mergedStream[R]) open(ln *lane[R], sh *shardHandle) {
	sh.mu.RLock()
	*ln = lane[R]{sh: sh, start: time.Now()}
	if it, err := st.q.open(sh.eng); err != nil {
		ln.done, ln.err = true, err
	} else {
		ln.it = it
	}
}

// pull takes the lane's next result, translated to its global ID — the step
// the merge repeats once PeekBound says the lane is worth advancing. ok is
// false, and the lane done, when there was none.
func (st *mergedStream[R]) pull(ln *lane[R]) (it item[R], ok bool) {
	if ln.r, ok, ln.err = ln.it.Next(); ln.err == nil && ok {
		key, id := st.q.at(&ln.r)
		if *id, ln.err = ln.sh.globalID(*id); ln.err == nil {
			return item[R]{key: key, id: *id, val: ln.r}, true
		}
	}
	ln.done = true
	return it, false
}

// finish closes the lane's stream, releases the shard, delivers the
// per-shard record and adds the shard's work to the aggregate.
func (st *mergedStream[R]) finish(ln *lane[R]) {
	var qs spatialkeyword.QueryStats
	if ln.it != nil {
		ln.it.Close()
		qs = ln.it.Stats()
	}
	ln.done = true
	ln.sh.mu.RUnlock()
	st.s.record(obs.QueryMetrics{Op: st.q.op, Shard: ln.sh.idx, Work: qs.Work, Latency: time.Since(ln.start), Err: ln.err != nil})
	st.agg.Add(qs.Work)
}

// record delivers the query's aggregate record.
func (st *mergedStream[R]) record(results int, err error) {
	st.s.record(obs.QueryMetrics{Op: st.q.op, Shard: -1, K: st.q.k, Keywords: st.q.keywords, Results: results,
		Work: st.agg.Work, Latency: time.Since(st.start), Err: err != nil, Degraded: st.agg.Degraded})
}

// classify classifies a lane's failure, once: a storage fault takes the
// shard out of rotation and the stream goes on degraded, anything else fails
// it.
func (st *mergedStream[R]) classify(ln *lane[R]) {
	switch {
	case ln.err == nil:
	case st.s.degrade(ln.sh, ln.err):
		st.agg.Degraded = true
	case st.err == nil:
		st.err = ln.err
	}
}

// What step does once no pulled result can be delivered yet.
const (
	peek   = iota // nothing: report the bound
	settle        // settle the lanes, best bound first, until the best is exact
	pull          // that, then pull the best lane
)

// step advances the merge until a pulled result can be delivered — no
// lane's bound beats it — or, short of that, as far as mode says. A lane is
// settled (Settle) before it is pulled, unless it is the only one left and
// nothing is pending, and pulled only while its exact key is the best bound
// left, so every row a lane reads is a row the merge delivers. It returns the bound on what is left, whether pending's first is
// deliverable, and whether anything is left.
func (st *mergedStream[R]) step(mode int) (bound float64, ready, ok bool) {
	for !st.closed && st.err == nil {
		var best *lane[R]
		live := 0
		for i := range st.lanes {
			ln := &st.lanes[i]
			if ln.done {
				continue
			}
			if b, more := ln.it.PeekBound(); !more {
				ln.done = true
			} else if live++; best == nil || before(st.q.asc, b, bound) {
				best, bound = ln, b
			}
		}
		if len(st.pending) > 0 && (best == nil || !before(st.q.asc, bound, st.pending[0].key)) {
			return st.pending[0].key, true, true
		}
		if best == nil || mode == peek || best.exact && mode == settle {
			return bound, false, best != nil
		}
		// A lane alone, with nothing pending, is pulled as it stands: what
		// it returns next is what the merge delivers next.
		if !best.exact && (mode == settle || live > 1 || len(st.pending) > 0) {
			if best.err = best.it.Settle(); best.err != nil {
				best.done = true
				st.classify(best)
			}
			best.exact = true
			continue
		}
		best.exact = false
		if it, pulled := st.pull(best); pulled {
			st.pending = insert(st.q.asc, st.pending, it)
		} else {
			st.classify(best)
		}
	}
	return 0, false, false
}

// next is Next on the stream's own terms: the candidate with its key and
// global ID, and no closing.
func (st *mergedStream[R]) next() (it item[R], ok bool) {
	if _, ok, _ = st.step(pull); ok {
		it = st.pending[0]
		st.pending = slices.Delete(st.pending, 0, 1)
		st.delivered++
	}
	return it, ok
}

// Next returns the next best result across the shards. ok is false when
// every shard is exhausted or the stream is closed; exhaustion and errors end
// the query as Close does.
func (st *mergedStream[R]) Next() (R, bool, error) {
	it, ok := st.next()
	if !ok {
		st.Close()
	}
	return it.val, ok, st.err
}

// PeekBound bounds the key of everything Next can still return; ok is false
// when nothing is left.
func (st *mergedStream[R]) PeekBound() (float64, bool) {
	bound, _, ok := st.step(peek)
	return bound, ok
}

// Settle settles the lanes until the best bound is a result's exact key, so
// that PeekBound is then the next result's key; it reads no row.
func (st *mergedStream[R]) Settle() error {
	st.step(settle)
	return st.err
}

// SetTrace installs fn on every lane that traces (distance streams do).
func (st *mergedStream[R]) SetTrace(fn func(rtree.TraceEvent)) {
	for _, ln := range st.lanes {
		if t, ok := ln.it.(interface{ SetTrace(func(rtree.TraceEvent)) }); ok {
			t.SetTrace(fn)
		}
	}
}

// Stats sums the lanes' work so far; after Close it is the query's total.
func (st *mergedStream[R]) Stats() spatialkeyword.QueryStats {
	live := st.agg
	for _, ln := range st.lanes {
		if !st.closed && ln.it != nil {
			live.Add(ln.it.Stats().Work)
		}
	}
	return live
}

// Close ends the query: every lane is finished — stream closed, shard
// released, per-shard record delivered — and then the aggregate record is.
// Closing a stream that has already ended is harmless.
func (st *mergedStream[R]) Close() { st.end(st.delivered) }

// end is Close reporting results as the query's result count.
func (st *mergedStream[R]) end(results int) {
	if st.closed {
		return
	}
	st.closed = true
	for i := range st.lanes {
		st.finish(&st.lanes[i])
	}
	st.record(results, st.err)
	if st.q.ranked != nil {
		st.q.ranked.release()
		st.q.ranked = nil
	}
}

// topK answers a sharded top-k: spatialkeyword.FirstK of the merge cut at k
// (math.MaxInt: every result), its record carrying the cut's result count.
func topK[R spatialkeyword.Result | spatialkeyword.RankedResult](s *ShardedEngine, q topkQuery[R], k int) ([]R, spatialkeyword.QueryStats, error) {
	if k <= 0 {
		return nil, spatialkeyword.QueryStats{}, nil
	}
	var dst []R
	if k < math.MaxInt {
		// Room for k and the first tie beyond it, but k is the caller's:
		// never more than the rows held. Sized before any lane holds a lock.
		dst = make([]R, 0, min(k, s.NumObjects())+1)
	}
	st, err := openStream(s, q)
	if err != nil {
		return nil, st.agg, err
	}
	results, err := spatialkeyword.FirstK(dst, held[R]{st}, k, nil)
	st.end(len(results))
	if err != nil {
		return nil, st.agg, err
	}
	return results, st.agg, nil
}

// held is the merge as topK pulls it: Next does not close the stream when it
// runs out, so the record end makes is topK's.
type held[R any] struct{ *mergedStream[R] }

func (h held[R]) Next() (R, bool, error) {
	it, ok := h.next()
	return it.val, ok, h.err
}

// item is one candidate of a merge: its ordering key (distance for
// distance-first and area queries, score for ranked queries), the global
// object ID used as the deterministic tie-break, and the result itself.
type item[R any] struct {
	key float64
	id  uint64
	val R
}

// insert puts it into items, which are ordered best first, at its place,
// after every item better than it. The search's closure stays on the stack,
// so an insert into items with room allocates nothing.
func insert[R any](asc bool, items []item[R], it item[R]) []item[R] {
	at := sort.Search(len(items), func(i int) bool { return !better(asc, &items[i], &it) })
	return slices.Insert(items, at, it)
}
