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
// A candidate's exact score, and an object entry's bound, come from rows,
// which must hold every row the tree does; a node entry's bound weighs each
// matched keyword by CapWeight of its TFCeiling rather than the paper's 1.
// The output order is exact because f is monotone and the IR upper bound is
// admissible (see package irscore). p is copied; the query's state comes
// from pooled scratch that Close returns.
func (x *IR2Tree) SearchRanked(p geo.Point, keywords []string, opts GeneralOptions, rows *Rows) *RankedIter {
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
		rows:       rows,
		ids:        rows.termIDs(sc.ids[:0], normalized),
		bound: rankedScorer{
			p:          append(st.at[:0], p...),
			sigs:       levelWordSigs{x: x, sigs: st.sigs[:0]},
			idfs:       idfs,
			probes:     probes,
			rowTFs:     rows.TFs,
			nodeWeight: irscore.CapWeight(rows.TFCeiling),
			lo:         sc.lo,
			hi:         sc.hi,
			masks:      sc.masks,
			nw:         nw,
		},
	}
	sc.ids = r.ids
	st.hashes = rows.hashes(st.hashes[:0], normalized, r.ids)
	r.bound.sigs.hashes = st.hashes
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
// signature hashes and signatures per level. A sharded ranked query opens one query per shard,
// so none of it is allocated again once the pool is warm.
type rankedState struct {
	words  []string
	idfs   []float64
	probes []irscore.TermProbe
	tf     []int
	exact  map[uint64]rankedCandidate
	at     geo.Point
	hashes []uint64
	sigs   [][]sigfile.Sig64
}

// maxPooledExact is the most re-enqueued candidates whose map Close keeps
// for the next query; a larger one is left to the collector.
const maxPooledExact = 1 << 12

// rankedScorer is the general query's node scorer: an entry's priority is
// the negated Upper(v) = f(MinDist(p, MBR), upper IR bound), the rtree
// iterator popping the smallest score first. The IR bound is Σ wᵢ·idfᵢ over
// the keywords whose signature W_i the entry's payload matches (§5.3 (i)),
// where wᵢ bounds keyword i's term weight in everything under the entry:
// for a node, nodeWeight — CapWeight of the row table's TFCeiling, since no
// row under it repeats a term more often — and for an object, the row's
// irscore.RowTF.Weight. It sums in ScoreFromCounts' order, keyword by
// keyword, so a row's bound is never below its exact score by a rounding.
type rankedScorer struct {
	p          geo.Point
	sigs       levelWordSigs
	idfs       []float64 // idf per normalized keyword, from QueryIDFs
	probes     []irscore.TermProbe
	rowTFs     []irscore.RowTF // Rows.TFs
	nodeWeight float64         // a node entry's wᵢ
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
	leaf := pn.Level() == 0
	for w, m := range mask {
		for ; m != 0; m &= m - 1 {
			b := uint(bits.TrailingZeros64(m))
			e := w*64 + int(b)
			var ub float64
			var row *irscore.RowTF
			if leaf {
				row = s.rowTF(pn.EntryPtr(e))
			}
			for i := range sigs {
				if s.masks[i*s.nw+w]>>b&1 == 0 {
					continue
				}
				wt := s.nodeWeight
				if row != nil {
					wt = row.Weight(s.probes[i])
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

// rowTF finds the term-frequency summary of row id, the row a leaf entry
// names. A row the table does not hold gets the empty summary, whose weight
// of 1 bounds any row: the entry stays queued, and Next reports the row
// missing when it pops it.
//
//skvet:hotpath
func (s *rankedScorer) rowTF(id uint64) *irscore.RowTF {
	if id >= uint64(len(s.rowTFs)) {
		return &noRowTF
	}
	return &s.rowTFs[id]
}

// noRowTF is the summary rowTF gives a row the table does not hold.
var noRowTF irscore.RowTF

// rankedCandidate is a candidate's exact score: its distance, its IR score
// and the negated f it is queued with. A candidate whose score did not beat
// the queue head is re-enqueued with it and remembered, so it is not scored
// twice.
type rankedCandidate struct {
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
	exact      map[uint64]rankedCandidate
	stats      SearchStats
	// rows is the engine's row table, and ids the normalized keywords' term
	// IDs in it, in keyword order.
	rows *Rows
	ids  []uint32
}

// Next returns the next best-scoring object. ok is false when no further
// object matches any keyword. A popped candidate's exact score comes from
// the row table; it is returned once that score is at least the queue
// head's bound, and re-enqueued with it otherwise ("U.Enqueue(T, Score)").
// A row is read only when it is returned; a candidate the table does not
// hold is an error.
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
		id, err := rowID(r.rows, ref)
		if err != nil {
			return RankedResult{}, false, err
		}
		if c, ok = r.candidate(id); !ok {
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

// candidate computes the exact score of row id from the row table, reading
// nothing; ok is false for a false positive, a row that holds no keyword
// (counted in FalsePositives).
func (r *RankedIter) candidate(id int) (rankedCandidate, bool) {
	var c rankedCandidate
	r.rows.Terms.CountsInto(r.tf, id, r.ids)
	c.dist = r.bound.p.Dist(r.rows.Point(id))
	c.ir = irscore.ScoreFromCounts(r.tf, r.bound.idfs)
	if c.ir == 0 {
		// No keyword — or a degenerate scorer weighs a present keyword at
		// zero; keep the paper's "Score > 0" test exact.
		r.stats.FalsePositives++
		return c, false
	}
	c.score = -irscore.Combine(c.dist, c.ir)
	return c, true
}

// emit returns candidate c, reading its row.
func (r *RankedIter) emit(ref uint64, c rankedCandidate) (RankedResult, bool, error) {
	obj, err := r.x.store.GetByID(objstore.ID(ref))
	if err != nil {
		return RankedResult{}, false, err
	}
	r.stats.ObjectsLoaded++
	fillTraversal(&r.stats, r.it.TraversalStats())
	return RankedResult{Object: obj, Dist: c.dist, IRScore: c.ir, Score: -c.score}, true, nil
}

// Stats returns the work counters accumulated so far.
func (r *RankedIter) Stats() SearchStats {
	fillTraversal(&r.stats, r.it.TraversalStats())
	return r.stats
}

// Close releases the traversal's pooled scratch and the query's (term IDs,
// keyword masks, and the ranked state of rankedState). Optional
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
		tf: r.tf[:0], exact: r.exact, at: r.bound.p[:0],
		hashes: r.bound.sigs.hashes[:0], sigs: r.bound.sigs.sigs[:0],
	}
	r.normalized, r.tf, r.exact, r.bound = nil, nil, nil, rankedScorer{}
	putScratch(&r.sc)
}

// PeekBound returns an upper bound on the score of every result the
// iterator can still produce: the (un-negated) priority of the best queued
// entry. An object at the head whose queued score is only its bound is
// scored first and re-enqueued (or dropped, a false positive), so whenever
// an object heads the queue the bound is a result's exact score and
// FirstK's tie check reads no row (a row the table does not hold stays for
// Next to report). ok is false when the
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
		id, err := rowID(r.rows, ref)
		if err != nil {
			break
		}
		r.it.DropObject()
		if c, ok := r.candidate(id); ok {
			r.it.Push(ref, c.score)
			r.exact[ref] = c
		}
	}
	s, ok := r.it.PeekScore()
	return -s, ok
}

// Settle is ResultIter.Settle for the general ranked query: PeekBound is
// then the next result's exact score.
func (r *RankedIter) Settle() error { return settle(&r.it, r.PeekBound) }
