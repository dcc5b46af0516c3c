package core

import (
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
)

// RankedResult is one answer of a general top-k spatial keyword query.
type RankedResult struct {
	Object  objstore.Object
	Dist    float64
	IRScore float64
	// Score is f(Dist, IRScore): the overall rank value (higher is better).
	Score float64
}

// GeneralOptions configures a general top-k query (Section 5.3).
type GeneralOptions struct {
	// Scorer provides idf statistics and IRscore computation. Required.
	Scorer *irscore.Scorer
	// Combiner is the ranking function f(distance, IRscore); it must be
	// non-increasing in distance and non-decreasing in IR score. Nil means
	// irscore.DistanceDiscount{}.
	Combiner irscore.Combiner
	// RequireMatch drops entries none of whose keyword signatures match —
	// the paper's "if Score > 0" test, which excludes results with zero IR
	// score. When false the traversal can fall back to pure spatial
	// ranking for keyword-less regions.
	RequireMatch bool
}

// SearchRanked starts a *general* top-k spatial keyword query: objects
// stream out in non-increasing f(distance(T.p, Q.p), IRscore(T.t, Q.t))
// order rather than being filtered conjunctively (Section 5.3). The
// differences from the distance-first algorithm, following the paper:
//
//	(i)  each query keyword gets its own signature W_i; a node's upper
//	     bound considers exactly the keywords whose signature matches the
//	     node's, assuming no false positives;
//	(ii) the queue is ordered by Upper(v) — the best possible f score of
//	     any object under v, combining the MBR's minimum distance with the
//	     signature-derived IR upper bound — and a loaded candidate is
//	     emitted only once its exact score is at least the queue head's
//	     upper bound ("if Score >= Upper(U.top())"); otherwise it is
//	     re-enqueued with its exact score to be considered later.
//
// The output order is exact for any monotone Combiner, because the IR upper
// bound is admissible (see package irscore).
func (x *IR2Tree) SearchRanked(p geo.Point, keywords []string, opts GeneralOptions) *RankedIter {
	comb := opts.Combiner
	if comb == nil {
		comb = irscore.DistanceDiscount{}
	}
	normalized, idfs := opts.Scorer.QueryIDFs(keywords)

	// Per-level, per-keyword signatures (W_i = Signature(w_i)), lazily
	// built: a MIR²-Tree uses different signature configurations per level.
	// Word-at-a-time views keep the per-entry bound allocation-free.
	perLevel := &levelWordSigs{scheme: x.scheme, words: normalized}

	// upperIR returns the signature-derived IR upper bound of an entry:
	// Σ idf(w_i) over the keywords whose signature the entry's covers.
	upperIR := func(level int, aux []byte) float64 {
		sigs := perLevel.at(level)
		var matched float64
		for i := range sigs {
			if sigs[i].MatchesTolerant(aux) {
				matched += idfs[i]
			}
		}
		return matched
	}

	// The rtree iterator pops the smallest score, so queue priorities are
	// negated f values.
	scorer := func(isObject bool, level int, rect geo.Rect, aux []byte) (float64, bool) {
		ub := upperIR(level, aux)
		if opts.RequireMatch && ub == 0 {
			return 0, false
		}
		return -comb.Combine(rect.MinDist(p), ub), true
	}
	r := &RankedIter{
		x:          x,
		it:         x.rt.Seek(scorer),
		p:          p,
		normalized: normalized,
		idfs:       idfs,
		tf:         make([]int, len(normalized)),
		opts:       opts,
		comb:       comb,
		exact:      make(map[uint64]rankedCandidate),
	}
	// The candidate filter runs on the raw text field before the object is
	// materialized (see objstore.GetFiltered): count terms into the scratch
	// — Next scores survivors off it — and, under RequireMatch, reject
	// candidates containing no keyword without paying their materialization.
	r.accept = func(text []byte) bool {
		r.x.an.TermFreqsBytesInto(r.tf, text, r.normalized)
		if !r.opts.RequireMatch {
			return true
		}
		for _, n := range r.tf {
			if n > 0 {
				return true
			}
		}
		return false
	}
	return r
}

// rankedCandidate remembers a loaded object re-enqueued with its exact
// (negated) score, so it is not read or scored twice.
type rankedCandidate struct {
	res   RankedResult
	score float64
}

// RankedIter streams general top-k results in non-increasing score order.
type RankedIter struct {
	x          *IR2Tree
	it         *rtree.Iter
	p          geo.Point
	normalized []string
	idfs       []float64 // idf per normalized term, from QueryIDFs
	tf         []int     // per-candidate term-frequency scratch
	sc         objstore.RowScratch
	accept     func(text []byte) bool
	opts       GeneralOptions
	comb       irscore.Combiner
	exact      map[uint64]rankedCandidate
	stats      SearchStats
}

// Next returns the next best-scoring object. ok is false when the index is
// exhausted (or, with RequireMatch, when no further object matches any
// keyword).
func (r *RankedIter) Next() (RankedResult, bool, error) {
	for {
		ref, score, ok, err := r.it.Next()
		if err != nil {
			return RankedResult{}, false, err
		}
		if !ok {
			fillTraversal(&r.stats, r.it.TraversalStats())
			return RankedResult{}, false, nil
		}
		if c, seen := r.exact[ref]; seen && c.score == score {
			// Re-dequeued with its exact score: nothing remaining can beat it.
			delete(r.exact, ref)
			fillTraversal(&r.stats, r.it.TraversalStats())
			return c.res, true, nil
		}
		// GetFiltered counts the candidate's term frequencies into r.tf
		// (via r.accept) straight off the row's scratch bytes, and under
		// RequireMatch skips materializing pure false positives — terms
		// never re-pass the pipeline (stemming is not idempotent), and a
		// rejected candidate costs no allocation at all.
		obj, ok, err := r.x.store.GetFiltered(objstore.Ptr(ref), &r.sc, r.accept)
		if err != nil {
			return RankedResult{}, false, err
		}
		r.stats.ObjectsLoaded++
		if !ok {
			r.stats.FalsePositives++
			continue
		}
		dist := r.p.Dist(obj.Point)
		ir := irscore.ScoreFromCounts(r.tf, r.idfs)
		if r.opts.RequireMatch && ir == 0 {
			// Degenerate scorers can weigh a present keyword at zero; keep
			// the paper's "Score > 0" test exact.
			r.stats.FalsePositives++
			continue
		}
		f := r.comb.Combine(dist, ir)
		res := RankedResult{Object: obj, Dist: dist, IRScore: ir, Score: f}
		if top, any := r.it.PeekScore(); !any || -f <= top {
			// Exact score at least as good as every remaining upper bound.
			fillTraversal(&r.stats, r.it.TraversalStats())
			return res, true, nil
		}
		r.it.Push(ref, -f)
		r.exact[ref] = rankedCandidate{res: res, score: -f}
	}
}

// Stats returns the work counters accumulated so far.
func (r *RankedIter) Stats() SearchStats {
	fillTraversal(&r.stats, r.it.TraversalStats())
	return r.stats
}

// Close releases the traversal's pooled scratch. Optional but cheap; the
// top-k helpers call it for every query they run.
func (r *RankedIter) Close() { r.it.Close() }

// PeekBound returns an upper bound on the score of every result the
// iterator can still produce: the (un-negated) priority of the best queued
// entry. ok is false when the traversal is exhausted. The shard merge uses
// it to pull only from the shard whose best remaining candidate is the
// global best.
func (r *RankedIter) PeekBound() (float64, bool) {
	s, ok := r.it.PeekScore()
	return -s, ok
}
