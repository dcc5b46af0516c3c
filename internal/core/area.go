package core

import (
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
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
	scorer := func(isObject bool, level int, rect geo.Rect, aux []byte) (float64, bool) {
		return rectDist(rect, area), true
	}
	return newResultIter(x, x.rt.Seek(scorer, sigs.at), kws)
}

// rectDist is geo.Rect.MinDistRect, aliased for readability at call sites.
func rectDist(a, b geo.Rect) float64 { return a.MinDistRect(b) }

// BuildBulk loads every object of the store with Sort-Tile-Recursive bulk
// loading (an extension over the paper's insert-based construction; see
// rtree.BulkLoad). Signature semantics are identical to Build: leaf
// signatures are the objects' word signatures, interior signatures are
// computed bottom-up through the scheme — with the same deferred pass for
// the MIR²-Tree.
func (x *IR2Tree) BuildBulk() error {
	if x.multilevel {
		x.scheme.mu.Lock()
		x.scheme.deferred = true
		x.scheme.cache = make(map[uint64][]string)
		x.scheme.mu.Unlock()
		defer func() {
			x.scheme.mu.Lock()
			x.scheme.deferred = false
			x.scheme.cache = nil
			x.scheme.mu.Unlock()
		}()
	}
	leaf := x.scheme.levelConfig(0)
	var entries []rtree.BulkEntry
	err := x.store.Scan(func(obj objstore.Object, ptr objstore.Ptr) error {
		words := x.an.Unique(obj.Text)
		if x.multilevel {
			x.scheme.mu.Lock()
			x.scheme.cache[uint64(ptr)] = words
			x.scheme.mu.Unlock()
		}
		entries = append(entries, rtree.BulkEntry{
			Ref:  uint64(ptr),
			Rect: geo.PointRect(obj.Point),
			Aux:  leaf.DocSignature(words),
		})
		return nil
	})
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return nil
	}
	if err := x.rt.BulkLoad(entries); err != nil {
		return err
	}
	if x.multilevel {
		x.scheme.mu.Lock()
		x.scheme.deferred = false
		x.scheme.mu.Unlock()
		return x.rt.RebuildAux()
	}
	return nil
}
