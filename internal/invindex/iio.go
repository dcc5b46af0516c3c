package invindex

import (
	"sort"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/textutil"
)

// Result is one ranked query answer: the loaded object and its distance to
// the query point.
type Result struct {
	Object objstore.Object
	Dist   float64
}

// IIOStats reports the work performed by one TopK call.
type IIOStats struct {
	// ObjectsLoaded is how many objects were read from the object file.
	ObjectsLoaded int
}

// TopK answers a distance-first top-k spatial keyword query with the
// Inverted Index Only algorithm (paper Figure 7): intersect the posting
// lists of the query keywords, load every object in the intersection,
// compute its distance to the query point, sort, and return the first k.
//
// IIO is the only non-incremental algorithm in the paper: it always computes
// the complete candidate set, so its cost is independent of k. Posting-list
// references are object-file pointers (objstore.Ptr), so loading a candidate
// pays the object's disk blocks.
func TopK(ix *Index, store *objstore.Store, k int, p geo.Point, keywords []string) ([]Result, IIOStats, error) {
	var stats IIOStats
	if k <= 0 {
		return nil, stats, nil
	}
	var plain *textutil.Analyzer // nil: plain tokenization
	refs, err := ix.Intersect(plain.Keywords(keywords))
	if err != nil {
		return nil, stats, err
	}

	results := make([]Result, 0, len(refs))
	for _, ref := range refs {
		obj, err := store.Get(objstore.Ptr(ref))
		if err != nil {
			return nil, stats, err
		}
		stats.ObjectsLoaded++
		results = append(results, Result{Object: obj, Dist: p.Dist(obj.Point)})
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Dist != results[j].Dist {
			return results[i].Dist < results[j].Dist
		}
		return results[i].Object.ID < results[j].Object.ID
	})
	if len(results) > k {
		results = results[:k]
	}
	return results, stats, nil
}
