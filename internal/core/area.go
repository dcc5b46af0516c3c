package core

import (
	"math/bits"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
)

// SearchArea is the query-area variant the paper mentions for the
// incremental NN algorithm ("an area could be used instead [of a point]",
// Section 3): objects are ranked by their minimum distance to the query
// rectangle — zero for objects inside it — with the same conjunctive
// keyword filtering as Search, in rows. Results stream in non-decreasing
// area-distance order.
func (x *IR2Tree) SearchArea(area geo.Rect, keywords []string, rows *Rows) *ResultIter {
	r := newResultIter(x, x.an.Keywords(keywords), rows)
	r.area = area
	r.it = x.rt.Seek(&areaScorer{area: area, lo: r.sc.lo, hi: r.sc.hi}, r.sigs.at)
	return r
}

// areaScorer is SearchArea's node scorer: an entry's priority is the
// minimum distance from its MBR, decoded into lo and hi, to the area, and
// nothing is dropped.
type areaScorer struct {
	area   geo.Rect
	lo, hi geo.Point
}

// ScoreNode implements rtree.NodeScorer.
//
//skvet:hotpath
func (s *areaScorer) ScoreNode(pn *rtree.PackedNode, mask []uint64, scores []float64) {
	for w, m := range mask {
		for ; m != 0; m &= m - 1 {
			i := w*64 + bits.TrailingZeros64(m)
			scores[i] = pn.EntryRectInto(i, s.lo, s.hi).MinDistRect(s.area)
		}
	}
}

// SearchWithin is the boolean range query ("all pizza places on this map
// view") as a stream: SearchArea's traversal with a scorer that keeps only
// the entries whose MBR intersects the area, so a subtree or object outside
// it is pruned as a signature miss is — the double pruning of the top-k
// algorithms. Every result has distance zero, in traversal order. Node
// entries score below zero, deeper ones lower, so the traversal is depth
// first in entry order — the block order, and so the sequential reads, of
// the recursive walk it replaced — and objects are emitted once every node
// is expanded. Its candidates are tested in rows, as Search's are.
func (x *IR2Tree) SearchWithin(area geo.Rect, keywords []string, rows *Rows) *ResultIter {
	r := newResultIter(x, x.an.Keywords(keywords), rows)
	r.area, r.within = area, true
	r.it = x.rt.Seek(&withinScorer{area: area, lo: r.sc.lo, hi: r.sc.hi}, r.sigs.at)
	return r
}

// withinScorer is SearchWithin's node scorer: it drops every entry whose
// MBR, decoded into lo and hi, misses the area, and scores the rest 0 in a
// leaf and -1/level above it.
type withinScorer struct {
	area   geo.Rect
	lo, hi geo.Point
}

// ScoreNode implements rtree.NodeScorer.
//
//skvet:hotpath
func (s *withinScorer) ScoreNode(pn *rtree.PackedNode, mask []uint64, scores []float64) {
	score := 0.0
	if pn.Level() > 0 {
		score = -1 / float64(pn.Level())
	}
	for w, m := range mask {
		for ; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			i := w*64 + b
			if !pn.EntryRectInto(i, s.lo, s.hi).Intersects(s.area) {
				mask[w] &^= 1 << b
				continue
			}
			scores[i] = score
		}
	}
}

// BuildBulk is InsertBatch over a scan of the whole store, each row's words
// read from its text: into an empty tree it loads every object with
// Sort-Tile-Recursive packing.
func (x *IR2Tree) BuildBulk() error {
	var batch []Entry
	err := x.store.Scan(func(obj objstore.Object, ptr objstore.Ptr) error {
		batch = append(batch, Entry{Ref: x.ref(obj.ID, ptr), Point: obj.Point, Words: x.an.Unique(obj.Text)})
		return nil
	})
	if err != nil {
		return err
	}
	_, err = x.InsertBatch(batch)
	return err
}
