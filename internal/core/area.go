package core

import (
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
)

// SearchArea is the query-area variant the paper mentions for the
// incremental NN algorithm ("an area could be used instead [of a point]",
// Section 3): objects are ranked by their minimum distance to the query
// rectangle — zero for objects inside it — with the same conjunctive
// keyword filtering as Search. Results stream in non-decreasing
// area-distance order.
func (x *IR2Tree) SearchArea(area geo.Rect, keywords []string) *ResultIter {
	kws := x.an.Keywords(keywords)
	sigs := &levelSigs{scheme: x.scheme, kws: kws}
	scorer := func(isObject bool, level int, rect geo.Rect, aux []byte, ptr uint64) (float64, bool) {
		return rectDist(rect, area), true
	}
	return newResultIter(x, x.rt.Seek(scorer, sigs.at), kws)
}

// SearchWithin is the boolean range query ("all pizza places on this map
// view") as a stream: SearchArea's traversal with a scorer that keeps only
// the entries whose MBR intersects the area, so a subtree or object outside
// it is pruned as a signature miss is — the double pruning of the top-k
// algorithms. Every result has distance zero, in traversal order. Node
// entries score below zero, deeper ones lower, so the traversal is depth
// first in entry order — the block order, and so the sequential reads, of
// the recursive walk it replaced — and objects are emitted once every node
// is expanded.
func (x *IR2Tree) SearchWithin(area geo.Rect, keywords []string) *ResultIter {
	kws := x.an.Keywords(keywords)
	sigs := &levelSigs{scheme: x.scheme, kws: kws}
	scorer := func(isObject bool, level int, rect geo.Rect, aux []byte, ptr uint64) (float64, bool) {
		if isObject {
			return 0, rect.Intersects(area)
		}
		return -1 / float64(level), rect.Intersects(area)
	}
	return newResultIter(x, x.rt.Seek(scorer, sigs.at), kws)
}

// rectDist is geo.Rect.MinDistRect, aliased for readability at call sites.
func rectDist(a, b geo.Rect) float64 { return a.MinDistRect(b) }

// BuildBulk is InsertBatch over a scan of the whole store: into an empty
// tree it loads every object with Sort-Tile-Recursive packing.
func (x *IR2Tree) BuildBulk() error {
	var objs []objstore.Object
	var ptrs []objstore.Ptr
	err := x.store.Scan(func(obj objstore.Object, ptr objstore.Ptr) error {
		objs = append(objs, obj)
		ptrs = append(ptrs, ptr)
		return nil
	})
	if err != nil {
		return err
	}
	return x.InsertBatch(objs, ptrs)
}
