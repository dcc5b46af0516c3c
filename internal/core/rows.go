package core

import (
	"fmt"
	"slices"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/textutil"
)

// Rows is an engine's in-memory row table, indexed by object ID: what a
// query needs of a row to test and score it without reading it. Every
// stream (Search, SearchArea, SearchWithin, SearchRanked) is given one: it
// tests a candidate's keywords and, ranked, computes its exact score from
// the table, and reads a row from the object file only to return it. Every
// row the table holds must be exactly what the object file holds, analyzed
// by the pipeline the tree's queries use: a term-ID test on it is proof,
// and its counts are the row's pipeline term frequencies.
type Rows struct {
	// Vocab interns every row's terms; its document frequencies are the
	// engine's corpus statistics.
	Vocab *textutil.Vocabulary
	// Terms is each row's distinct term IDs and their counts.
	Terms textutil.TermArena
	// TFs is each row's term-frequency summary, its cap and repeated-term
	// mask: the general ranked query's per-object bound (see rankedScorer).
	TFs []irscore.RowTF
	// Points is each row's point, geo.Dims coordinates per row.
	Points []float64
	// TFCeiling is the largest RowTF cap of every row ever added: no row
	// the table holds, or held, has a term more often (MaxTFCap: this many
	// or more). A delete does not lower it, so it stays an upper bound.
	TFCeiling uint8
	// Leaf is the tree's leaf signature scheme, and Sigs each row's
	// signature at it, Leaf.LengthBytes bytes per row: the DocSignature of
	// the row's distinct terms, the leaf filter a served tree's node tests
	// every entry with. None is kept at length 0.
	Leaf sigfile.Config
	Sigs []byte
	// bits is the Leaf bit positions of every term the vocabulary held at
	// the last Add, BitsPerWord per term ID, taken from the term's hash
	// once: a row's signature sets them and hashes nothing.
	bits []uint32
}

// Add analyzes row id's text once, through the vocabulary's fold with
// pipeline an, and records the row's terms, summary, point and leaf
// signature, all from the vocabulary's term IDs and hashes. Rows are added
// in ascending ID order; a row skipped (an add that failed after its
// append) holds no term, a zero summary, a zero point and a zero
// signature, and is never a candidate.
func (r *Rows) Add(id objstore.ID, p geo.Point, an *textutil.Analyzer, text string) {
	terms, counts := r.Vocab.AddDocWith(an, text)
	n := int(id) + 1
	r.TFs = append(r.TFs, make([]irscore.RowTF, n-len(r.TFs))...)
	r.TFs[id] = irscore.RowTFOf(counts, func(i int) uint64 { return r.Vocab.Hash(terms[i]) })
	r.TFCeiling = max(r.TFCeiling, r.TFs[id].Cap())
	r.Points = append(r.Points, make([]float64, n*geo.Dims-len(r.Points))...)
	copy(r.Points[int(id)*geo.Dims:], p)
	if l, k := r.Leaf.LengthBytes, r.Leaf.BitsPerWord; l > 0 {
		for t := len(r.bits) / k; t < r.Vocab.NumWords(); t++ {
			r.bits = r.Leaf.AppendBits(r.bits, r.Vocab.Hash(uint32(t)))
		}
		r.Sigs = append(r.Sigs, make([]byte, n*l-len(r.Sigs))...)
		sig := r.Sigs[int(id)*l : n*l]
		for _, t := range terms {
			for _, b := range r.bits[int(t)*k : int(t+1)*k] {
				sig[b/8] |= 1 << (b % 8)
			}
		}
	}
	r.Terms.Set(int(id), terms, counts)
}

// Grow makes room for n more rows, so that adding them moves nothing (an
// open, which knows how many rows its scan adds).
func (r *Rows) Grow(n int) {
	r.TFs = slices.Grow(r.TFs, n)
	r.Points = slices.Grow(r.Points, n*geo.Dims)
	r.Sigs = slices.Grow(r.Sigs, n*r.Leaf.LengthBytes)
	r.Terms.Grow(n)
}

// Sig returns row id's leaf signature, a view of the table; false when the
// table keeps none for it.
func (r *Rows) Sig(id uint64) ([]byte, bool) {
	l := r.Leaf.LengthBytes
	if l == 0 || id >= uint64(len(r.Sigs)/l) {
		return nil, false
	}
	return r.Sigs[int(id)*l : int(id+1)*l : int(id+1)*l], true
}

// Point returns row id's point, a view of the table.
//
//skvet:hotpath
func (r *Rows) Point(id int) geo.Point {
	return r.Points[id*geo.Dims : (id+1)*geo.Dims : (id+1)*geo.Dims]
}

// termIDs appends the term ID of each normalized keyword to dst, NoTerm for
// one no row holds.
func (r *Rows) termIDs(dst []uint32, keywords []string) []uint32 {
	for _, w := range keywords {
		id, ok := r.Vocab.TermID(w)
		if !ok {
			id = textutil.NoTerm
		}
		dst = append(dst, id)
	}
	return dst
}

// hashes appends the signature hash (sigfile.Hash) of each normalized
// keyword to dst, where ids holds their term IDs (termIDs): the
// vocabulary's for a term it holds, else the word's own.
func (r *Rows) hashes(dst []uint64, keywords []string, ids []uint32) []uint64 {
	for i, w := range keywords {
		if ids[i] == textutil.NoTerm {
			dst = append(dst, sigfile.Hash(w))
		} else {
			dst = append(dst, r.Vocab.Hash(ids[i]))
		}
	}
	return dst
}

// rowID returns the row a served leaf entry names, ref, as an index into
// rows, or an error when rows does not hold it: a stream's table holds
// every row its tree does.
//
//skvet:hotpath
func rowID(rows *Rows, ref uint64) (int, error) {
	if ref >= uint64(rows.Terms.Len()) {
		return 0, fmt.Errorf("core: the row table holds no row %d", ref)
	}
	return int(ref), nil
}

// PushRun puts every row of queued (object IDs in the query's row table)
// that holds all the query's keywords on the traversal's frontier as an
// object entry, at the key a leaf entry for it would get (its distance, or
// area distance, from the query; a range query skips a row outside its
// rectangle). From there a queued row is returned like a tree row. Call it
// before the first Next; the rows must be readable from the store by then.
func (r *ResultIter) PushRun(queued []uint64) {
	for _, id := range queued {
		if !r.rows.Terms.HoldsAll(int(id), r.ids) {
			continue
		}
		p := r.rows.Point(int(id))
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
		r.it.Push(id, key)
	}
}

// PushRun is ResultIter.PushRun for the general ranked query: a row that
// holds at least one keyword is pushed at the negated f of its distance and
// its IR bound, Σ idfᵢ·RowTF.Weight over the keywords it holds — the bound
// rankedScorer gives a leaf entry whose signature matches exactly those
// keywords. A row whose bound is 0 is skipped, as the scorer drops it.
func (r *RankedIter) PushRun(queued []uint64) {
	s := &r.bound
	for _, id := range queued {
		r.rows.Terms.CountsInto(r.tf, int(id), r.ids)
		var ub float64
		for k, n := range r.tf {
			if n > 0 {
				ub += s.rowTFs[id].Weight(s.probes[k]) * s.idfs[k]
			}
		}
		if ub == 0 {
			continue
		}
		p := r.rows.Point(int(id))
		r.it.Push(id, -irscore.Combine(geo.Rect{Lo: p, Hi: p}.MinDist(s.p), ub))
	}
}
