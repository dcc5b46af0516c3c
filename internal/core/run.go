package core

import (
	"slices"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/objstore"
)

// Run is the rows a stream answers from beside the tree: rows appended to
// the store but not indexed yet (an engine's queued adds). Row i is a row's
// pointer, point and distinct term IDs; TermID maps a normalized keyword
// to its term ID, ok false when no row holds the word. Term IDs come from
// the analyzer the tree's queries use, so a term-ID test is proof: a row
// that passes it holds the keywords, one that fails it does not.
type Run interface {
	Len() int
	Row(i int) (ptr objstore.Ptr, p geo.Point, terms []uint32)
	TermID(word string) (id uint32, ok bool)
}

// PushRun puts every row of run that holds all the query's keywords on the
// traversal's frontier as an object entry, at the key a leaf entry for it
// would get (its distance, or area distance, from the query; a range query
// skips a row outside its rectangle). From there a queued row is loaded,
// verified and counted like a tree row. Call it before the first Next; the
// rows must be readable from the store by then.
func (r *ResultIter) PushRun(run Run) {
	if run.Len() == 0 {
		return
	}
	ids := make([]uint32, len(r.keywords))
	for i, w := range r.keywords {
		id, ok := run.TermID(w)
		if !ok {
			return // no row holds the keyword
		}
		ids[i] = id
	}
	for i := 0; i < run.Len(); i++ {
		ptr, p, terms := run.Row(i)
		if !holdsAll(terms, ids) {
			continue
		}
		rect := geo.Rect{Lo: p, Hi: p}
		var key float64
		switch {
		case r.at != nil:
			key = rect.MinDist(r.at)
		case r.within:
			if !rect.Intersects(r.area) {
				continue
			}
		default:
			key = rect.MinDistRect(r.area)
		}
		r.it.Push(uint64(ptr), key)
	}
}

// holdsAll reports whether terms holds every ID of ids.
func holdsAll(terms, ids []uint32) bool {
	for _, id := range ids {
		if !slices.Contains(terms, id) {
			return false
		}
	}
	return true
}

// PushRun is ResultIter.PushRun for the general ranked query: a row that
// holds at least one keyword is pushed at the negated f of its distance and
// its IR bound, Σ idfᵢ·RowTF.Weight over the keywords it holds — the bound
// rankedScorer gives a leaf entry whose signature matches exactly those
// keywords. A row whose bound is 0 is skipped, as the scorer drops it.
func (r *RankedIter) PushRun(run Run) {
	if run.Len() == 0 {
		return
	}
	ids := make([]uint32, len(r.normalized))
	held := make([]bool, len(r.normalized))
	for i, w := range r.normalized {
		ids[i], held[i] = run.TermID(w)
	}
	s := &r.bound
	for i := 0; i < run.Len(); i++ {
		ptr, p, terms := run.Row(i)
		var ub float64
		var row *irscore.RowTF
		look := s.rowTFs != nil
		for k, id := range ids {
			if !held[k] || !slices.Contains(terms, id) {
				continue
			}
			if look {
				row, look = s.rowTF(uint64(ptr)), false
			}
			wt := 1.0
			if row != nil {
				wt = row.Weight(s.probes[k])
			}
			ub += wt * s.idfs[k]
		}
		if ub == 0 {
			continue
		}
		r.it.Push(uint64(ptr), -irscore.Combine(geo.Rect{Lo: p, Hi: p}.MinDist(s.p), ub))
	}
}
