package core

import (
	"math/bits"
	"sort"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/storage"
)

// WithinArea returns every object inside the query rectangle whose text
// contains all the keywords — the classic boolean range query ("all pizza
// places on this map view"), answered with the same double pruning as the
// top-k algorithms: subtrees are skipped when their MBR misses the area
// *or* their signature misses the query signature. Results are ordered by
// object ID for determinism.
func (x *IR2Tree) WithinArea(area geo.Rect, keywords []string) ([]Result, SearchStats, error) {
	kws := x.an.Keywords(keywords)
	sigs := &levelSigs{scheme: x.scheme, kws: kws}

	var stats SearchStats
	root, err := x.rt.RootPacked()
	if err != nil {
		return nil, stats, err
	}
	if root == nil {
		return nil, stats, nil
	}
	// Phase one walks the tree collecting candidate object pointers; phase
	// two loads them in one batch, so rows sharing a block are read once
	// instead of once per object. Each node tests its level's query
	// signature against all of its entries at once (MatchMask), so only the
	// survivors have their rectangle decoded — into one pair of corner
	// points that serves every entry, since a rectangle is tested before the
	// walk moves on. A node's mask lives until its last child returns, so
	// each depth has its own.
	var ptrs []objstore.Ptr
	lo, hi := make(geo.Point, x.rt.Dim()), make(geo.Point, x.rt.Dim())
	var masks [][]uint64
	var walk func(n *rtree.PackedNode, depth int) error
	walk = func(n *rtree.PackedNode, depth int) error {
		stats.NodesLoaded++
		if depth == len(masks) {
			masks = append(masks, make([]uint64, x.rt.MaskWords()))
		}
		for w, m := range n.MatchMask(sigs.at(n.Level()), masks[depth]) {
			for ; m != 0; m &= m - 1 {
				i := w*64 + bits.TrailingZeros64(m)
				if !n.EntryRectInto(i, lo, hi).Intersects(area) {
					continue
				}
				if n.Level() == 0 {
					ptrs = append(ptrs, objstore.Ptr(n.EntryPtr(i)))
					continue
				}
				child, err := x.rt.LoadPacked(storage.BlockID(n.EntryPtr(i)))
				if err != nil {
					return err
				}
				if err := walk(child, depth+1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(root, 0); err != nil {
		return nil, stats, err
	}
	objs, err := x.store.GetBatch(ptrs)
	if err != nil {
		return nil, stats, err
	}
	stats.ObjectsLoaded = len(objs)
	var out []Result
	for i := range objs {
		obj := objs[i]
		if !area.ContainsPoint(obj.Point) {
			// The entry MBR intersected the area but the point itself
			// (for degenerate point MBRs this cannot happen; kept for
			// rectangle objects) lies outside.
			continue
		}
		if !x.an.ContainsTerms(obj.Text, kws) {
			stats.FalsePositives++
			continue
		}
		out = append(out, Result{Object: obj, Dist: 0})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Object.ID < out[j].Object.ID })
	return out, stats, nil
}
