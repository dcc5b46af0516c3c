package core

import (
	"math/bits"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/sigfile"
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
}

// SearchRanked starts a *general* top-k spatial keyword query: objects
// stream out in non-increasing f(distance(T.p, Q.p), IRscore(T.t, Q.t))
// order (f is irscore.Combine) rather than being filtered conjunctively
// (Section 5.3); an object with no keyword, IRscore 0, is never an answer
// (the paper's "if Score > 0"). The differences from the distance-first
// algorithm, following the paper:
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
// The output order is exact because f is monotone and the IR upper bound is
// admissible (see package irscore). p is copied; the query's state comes
// from pooled scratch that Close returns.
func (x *IR2Tree) SearchRanked(p geo.Point, keywords []string, opts GeneralOptions) *RankedIter {
	sc := takeScratch()
	st := &sc.ranked
	normalized, idfs := opts.Scorer.QueryIDFsInto(st.words, st.idfs, keywords)
	probes := st.probes[:0]
	for _, w := range normalized {
		probes = append(probes, irscore.ProbeTerm(w))
	}
	if cap(st.tf) < len(normalized) {
		st.tf = make([]int, len(normalized))
	}
	if st.exact == nil {
		st.exact = make(map[uint64]rankedCandidate)
	}
	nw := x.rt.MaskWords()
	if n := len(normalized) * nw; cap(sc.masks) < n {
		sc.masks = make([]uint64, n)
	}
	r := &RankedIter{
		x:          x,
		normalized: normalized,
		tf:         st.tf[:len(normalized)],
		sc:         sc,
		exact:      st.exact,
		bound: rankedScorer{
			p:          append(st.at[:0], p...),
			sigs:       levelWordSigs{x: x, words: normalized, sigs: st.sigs[:0]},
			idfs:       idfs,
			probes:     probes,
			nodeWeight: 1,
			store:      x.store,
			lo:         sc.lo,
			hi:         sc.hi,
			masks:      sc.masks,
			nw:         nw,
		},
	}
	// The traversal gets no signature to prune by: the bound needs every
	// keyword's match separately, and the scorer drops the entries no
	// keyword matches itself.
	x.rt.SeekInto(&r.it, &r.bound, nil)
	return r
}

// rankedState is the storage of a ranked query's per-query state, which
// SearchRanked takes from the query scratch and Close hands back: the
// normalized keywords, their idfs and probes, the term-count scratch, the
// re-enqueued candidates' scores, the query point and the keywords'
// signatures per level. A sharded ranked query opens one query per shard,
// so none of it is allocated again once the pool is warm.
type rankedState struct {
	words  []string
	idfs   []float64
	probes []irscore.TermProbe
	tf     []int
	exact  map[uint64]rankedCandidate
	at     geo.Point
	sigs   [][]sigfile.Sig64
}

// maxPooledExact is the most re-enqueued candidates whose map Close keeps
// for the next query; a larger one is left to the collector.
const maxPooledExact = 1 << 12

// accepts is the candidate filter without a row table, which runs on the
// raw text field before the object is materialized (see
// objstore.GetFiltered): it counts the keywords' terms into r.tf — candidate
// scores a survivor off them — and rejects a row holding no keyword without
// paying its materialization.
func (r *RankedIter) accepts(text []byte) bool {
	r.x.an.TermFreqsBytesInto(r.tf, text, r.normalized)
	for _, n := range r.tf {
		if n > 0 {
			return true
		}
	}
	return false
}

// rankedScorer is the general query's node scorer: an entry's priority is
// the negated Upper(v) = f(MinDist(p, MBR), upper IR bound), the rtree
// iterator popping the smallest score first. The IR bound is Σ wᵢ·idfᵢ over
// the keywords whose signature W_i the entry's payload matches (§5.3 (i)),
// where wᵢ bounds keyword i's term weight in everything under the entry:
// for a node, nodeWeight — CapWeight of the row table's TFCeiling, since no
// row under it repeats a term more often, or the paper's 1 without a table
// — and for an object, the row's irscore.RowTF.Weight, its summary looked
// up once a keyword matches. It sums in ScoreFromCounts' order, keyword by
// keyword, so a row's bound is never below its exact score by a rounding.
type rankedScorer struct {
	p          geo.Point
	sigs       levelWordSigs
	idfs       []float64 // idf per normalized keyword, from QueryIDFs
	probes     []irscore.TermProbe
	rowTFs     []irscore.RowTF // Rows.TFs, from UseRows
	nodeWeight float64         // a node entry's wᵢ
	store      *objstore.Store // maps a row pointer to its ID
	lo, hi     geo.Point       // the MBR being scored
	masks      []uint64        // keyword i's survivor mask at masks[i*nw:]
	nw         int             // Tree.MaskWords
}

// ScoreNode implements rtree.NodeScorer: one MatchMask per keyword tests
// every entry of the node against W_i (a length mismatch keeps every entry,
// the only sound answer); the entries no keyword matched are dropped, and
// so are those whose bound is 0 (a zero-idf keyword); each survivor's bound
// is summed from the keyword masks.
//
//skvet:hotpath
func (s *rankedScorer) ScoreNode(pn *rtree.PackedNode, mask []uint64, scores []float64) {
	sigs := s.sigs.at(pn.Level())
	for i := range sigs {
		pn.MatchMask(&sigs[i], s.masks[i*s.nw:])
	}
	for w := range mask {
		var matched uint64
		for i := range sigs {
			matched |= s.masks[i*s.nw+w]
		}
		mask[w] &= matched
	}
	lookup := pn.Level() == 0 && s.rowTFs != nil
	for w, m := range mask {
		for ; m != 0; m &= m - 1 {
			b := uint(bits.TrailingZeros64(m))
			e := w*64 + int(b)
			var ub float64
			var row *irscore.RowTF
			look := lookup
			for i := range sigs {
				if s.masks[i*s.nw+w]>>b&1 == 0 {
					continue
				}
				if look {
					row, look = s.rowTF(pn.EntryPtr(e)), false
				}
				wt := s.nodeWeight
				switch {
				case row != nil:
					wt = row.Weight(s.probes[i])
				case lookup:
					wt = 1 // a row the table does not hold
				}
				ub += wt * s.idfs[i]
			}
			if ub == 0 {
				mask[w] &^= 1 << b
				continue
			}
			scores[e] = -irscore.Combine(pn.EntryRectInto(e, s.lo, s.hi).MinDist(s.p), ub)
		}
	}
}

// rowTF finds the term-frequency summary of the row at ptr by the row's ID,
// which the store's row index resolves in constant time, or nil.
//
//skvet:hotpath
func (s *rankedScorer) rowTF(ptr uint64) *irscore.RowTF {
	id, ok := s.store.IDAt(objstore.Ptr(ptr))
	if !ok || int(id) >= len(s.rowTFs) {
		return nil
	}
	return &s.rowTFs[id]
}

// rankedCandidate is a candidate's exact score: its distance, its IR score
// and the negated f it is queued with. A candidate whose score did not beat
// the queue head is re-enqueued with it and remembered, so it is not scored
// twice; without a row table its row, read to score it, is kept too, so it
// is not read twice.
type rankedCandidate struct {
	obj      objstore.Object
	read     bool // obj holds the row
	dist, ir float64
	score    float64
}

// RankedIter streams general top-k results in non-increasing score order.
type RankedIter struct {
	x          *IR2Tree
	it         rtree.Iter
	bound      rankedScorer // the traversal's scorer; also holds p and the idfs
	normalized []string
	tf         []int // per-candidate term-frequency scratch
	sc         *queryScratch
	accept     func(text []byte) bool // r.accepts, bound when a candidate is first read without a row table
	exact      map[uint64]rankedCandidate
	stats      SearchStats
	// rows, when not nil, is the engine's row table (UseRows), and ids the
	// normalized keywords' term IDs in it, in keyword order.
	rows *Rows
	ids  []uint32
}

// Next returns the next best-scoring object. ok is false when no further
// object matches any keyword. A popped candidate's exact score comes from
// the row table when the query has one, else from its row, read; it is
// returned once that score is at least the queue head's bound, and
// re-enqueued with it otherwise ("U.Enqueue(T, Score)"). With a row table a
// row is read only when it is returned.
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
		c, seen := r.exact[ref]
		if seen && c.score == score {
			// Re-dequeued with its exact score: nothing remaining can beat it.
			delete(r.exact, ref)
			return r.emit(ref, c)
		}
		c, ok, err = r.candidate(ref)
		if err != nil {
			return RankedResult{}, false, err
		}
		if !ok {
			continue
		}
		if top, any := r.it.PeekScore(); !any || c.score <= top {
			// Exact score at least as good as every remaining upper bound.
			return r.emit(ref, c)
		}
		r.it.Push(ref, c.score)
		r.exact[ref] = c
	}
}

// candidate computes the exact score of the object at ref; ok is false for
// a false positive, an object that holds no keyword (counted in
// FalsePositives). From the row table it reads nothing. Without one, the
// store's GetFiltered counts the candidate's term frequencies into r.tf
// (via r.accept) straight off the row's scratch bytes, and skips
// materializing pure false positives — terms never re-pass the pipeline
// (stemming is not idempotent), and a rejected candidate costs no
// allocation at all.
func (r *RankedIter) candidate(ref uint64) (rankedCandidate, bool, error) {
	var c rankedCandidate
	if id, in := rowID(r.rows, r.x.store, ref); in {
		r.rows.Terms.CountsInto(r.tf, id, r.ids)
		c.dist = r.bound.p.Dist(r.rows.Point(id))
	} else {
		if r.accept == nil {
			r.accept = r.accepts
		}
		obj, ok, err := r.x.store.GetFiltered(objstore.Ptr(ref), &r.sc.row, r.accept)
		if err != nil {
			return c, false, err
		}
		r.stats.ObjectsLoaded++
		if !ok {
			r.stats.FalsePositives++
			return c, false, nil
		}
		c.obj, c.read = obj, true
		c.dist = r.bound.p.Dist(obj.Point)
	}
	c.ir = irscore.ScoreFromCounts(r.tf, r.bound.idfs)
	if c.ir == 0 {
		// No keyword — or a degenerate scorer weighs a present keyword at
		// zero; keep the paper's "Score > 0" test exact.
		r.stats.FalsePositives++
		return c, false, nil
	}
	c.score = -irscore.Combine(c.dist, c.ir)
	return c, true, nil
}

// emit returns candidate c, reading its row if scoring it did not.
func (r *RankedIter) emit(ref uint64, c rankedCandidate) (RankedResult, bool, error) {
	if !c.read {
		obj, err := r.x.store.Get(objstore.Ptr(ref))
		if err != nil {
			return RankedResult{}, false, err
		}
		r.stats.ObjectsLoaded++
		c.obj = obj
	}
	fillTraversal(&r.stats, r.it.TraversalStats())
	return RankedResult{Object: c.obj, Dist: c.dist, IRScore: c.ir, Score: -c.score}, true, nil
}

// Stats returns the work counters accumulated so far.
func (r *RankedIter) Stats() SearchStats {
	fillTraversal(&r.stats, r.it.TraversalStats())
	return r.stats
}

// Close releases the traversal's pooled scratch and the query's (row
// buffers, keyword masks, and the ranked state of rankedState). Optional
// but cheap; the top-k helpers call it for every query they run. A closed
// traversal is exhausted, so Next loads no candidate after it and the
// scorer is not called again; Stats still reports the query's work.
func (r *RankedIter) Close() {
	r.it.Close()
	if r.sc == nil {
		return
	}
	clear(r.normalized)
	if len(r.exact) > maxPooledExact {
		r.exact = nil
	}
	clear(r.exact)
	r.sc.ranked = rankedState{
		words: r.normalized[:0], idfs: r.bound.idfs[:0], probes: r.bound.probes[:0],
		tf: r.tf[:0], exact: r.exact, at: r.bound.p[:0], sigs: r.bound.sigs.sigs[:0],
	}
	r.normalized, r.tf, r.exact, r.bound = nil, nil, nil, rankedScorer{}
	putScratch(&r.sc)
}

// PeekBound returns an upper bound on the score of every result the
// iterator can still produce: the (un-negated) priority of the best queued
// entry. With a row table, an object at the head whose queued score is
// only its bound is scored first and re-enqueued (or dropped, a false
// positive), so whenever an object heads the queue the bound is a result's
// exact score and FirstK's tie check reads no row. ok is false when the
// traversal is exhausted. The shard merge uses it to pull only from the
// shard whose best remaining candidate is the global best.
func (r *RankedIter) PeekBound() (float64, bool) {
	for {
		ref, score, ok := r.it.PeekObject()
		if !ok {
			break
		}
		if c, seen := r.exact[ref]; seen && c.score == score {
			break
		}
		if _, in := rowID(r.rows, r.x.store, ref); !in {
			break
		}
		r.it.DropObject()
		// From the row table, candidate reads nothing and cannot fail.
		if c, ok, _ := r.candidate(ref); ok {
			r.it.Push(ref, c.score)
			r.exact[ref] = c
		}
	}
	s, ok := r.it.PeekScore()
	return -s, ok
}

// Settle is ResultIter.Settle for the general ranked query: with a row
// table, PeekBound is then the next result's exact score.
func (r *RankedIter) Settle() error { return settle(&r.it, r.PeekBound) }
