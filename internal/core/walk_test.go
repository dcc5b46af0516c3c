package core

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// walkItem and walkQueue are decodedSearch's priority queue, ordered as the
// rtree iterator's: score, then objects before nodes, then insertion order.
type walkItem struct {
	isObject bool
	ptr      uint64
	score    float64
	seq      int
}

type walkQueue []walkItem

func (q walkQueue) Len() int { return len(q) }
func (q walkQueue) Less(i, j int) bool {
	if q[i].score != q[j].score {
		return q[i].score < q[j].score
	}
	if q[i].isObject != q[j].isObject {
		return q[i].isObject
	}
	return q[i].seq < q[j].seq
}
func (q walkQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *walkQueue) Push(x any)   { *q = append(*q, x.(walkItem)) }
func (q *walkQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// decodedSearch is the traversal under Search, SearchArea and the paper's
// top-k loop written over rt's decoded LoadNode images, in the per-entry
// order it had before the signature test moved ahead of the rectangle
// decode: decode, score by dist, then the signature test, its level's
// signature looked up per entry (sig nil, as for the R-Tree baseline, keeps
// every entry). It returns the object refs the traversal emits, in order,
// and its counters.
func decodedSearch(t *testing.T, rt *rtree.Tree, sig func(level int) *sigfile.Sig64, dist func(geo.Rect) float64) (refs []uint64, st rtree.TraversalStats) {
	t.Helper()
	root, err := rt.Root()
	if err != nil {
		t.Fatal(err)
	}
	q := &walkQueue{}
	seq := 0
	if root != nil {
		heap.Push(q, walkItem{ptr: uint64(root.ID()), score: math.Inf(-1)})
		seq++
	}
	for q.Len() > 0 {
		item := heap.Pop(q).(walkItem)
		if item.isObject {
			refs = append(refs, item.ptr)
			continue
		}
		n, err := rt.LoadNode(storage.BlockID(item.ptr))
		if err != nil {
			t.Fatal(err)
		}
		st.NodesLoaded++
		for i := 0; i < n.NumEntries(); i++ {
			ptr, rect, aux := n.Entry(i)
			score := dist(rect)
			if sig != nil && !matchesTolerant(sig(n.Level()), aux) {
				st.EntriesPruned++
				continue
			}
			if n.Level() == 0 {
				st.ObjectsEnqueued++
			} else {
				st.NodesEnqueued++
			}
			heap.Push(q, walkItem{isObject: n.Level() == 0, ptr: ptr, score: score, seq: seq})
			seq++
		}
	}
	return refs, st
}

// TestSearchMatchesDecodedWalk holds the table-backed streams, Search and
// SearchArea on served IR² and MIR² trees, and the paper's top-k loop, TopK
// on IR², MIR² and the R-Tree baseline, to brute force — every object
// containing the keywords, each at its exact distance, in non-decreasing
// order — and to decodedSearch: the same results in the same order, and
// the same work record. A stream tests every candidate the walk pops in
// the row table and reads only its results; the paper's loop reads every
// candidate. MIR² sizes its signatures by level, so testing one level's
// signature against another level's entries shows here.
func TestSearchMatchesDecodedWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	f := buildFixture(t, randomRows(rng, 400), 4, 8)
	objOf := make(map[uint64]objstore.Object, len(f.ptrs))
	for i, p := range f.ptrs {
		objOf[uint64(p)] = f.objects[i]
	}
	byPtr := func(ref uint64) objstore.Object { return objOf[ref] }
	byID := func(ref uint64) objstore.Object { return f.objects[ref] }
	pruned := 0
	for trial := 0; trial < 12; trial++ {
		kw := [][]string{{"pool"}, {"internet", "spa"}, {"gym", "bar", "wifi"}, {"notaword"}}[trial%4]
		kws := (*textutil.Analyzer)(nil).Keywords(kw)
		p := geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
		lo := geo.NewPoint(rng.Float64()*800, rng.Float64()*800)
		area := geo.NewRect(lo, geo.NewPoint(lo[0]+rng.Float64()*300, lo[1]+rng.Float64()*300))
		var brute []objstore.ID
		for _, o := range f.objects {
			if textutil.ContainsAll(o.Text, kws) {
				brute = append(brute, o.ID)
			}
		}
		slices.Sort(brute)
		near := func(r geo.Rect) float64 { return r.MinDist(p) }
		type run struct {
			kind    string
			rt      *rtree.Tree
			sig     func(level int) *sigfile.Sig64
			dist    func(geo.Rect) float64
			results func() ([]Result, SearchStats, error)
			paper   bool                             // reads every candidate
			obj     func(ref uint64) objstore.Object // the object a leaf entry names
		}
		var runs []run
		for _, tc := range []struct {
			name          string
			paper, served *IR2Tree
		}{{"IR2", f.ir2, f.sir2}, {"MIR2", f.mir2, f.smir2}} {
			tree, name := tc.served, tc.name
			sig := (&levelSigs{x: tree, hashes: wordHashes(kws)}).at
			paperSig := (&levelSigs{x: tc.paper, hashes: wordHashes(kws)}).at
			stream := func(it *ResultIter) ([]Result, SearchStats, error) {
				got, err := TakeK(len(f.objects)+1, it.Next)
				it.Close()
				return got, it.Stats(), err
			}
			runs = append(runs,
				run{name + " Search", tree.rt, sig, near, func() ([]Result, SearchStats, error) {
					return stream(tree.Search(p, kw, f.rows))
				}, false, byID},
				run{name + " SearchArea", tree.rt, sig, func(r geo.Rect) float64 { return r.MinDistRect(area) }, func() ([]Result, SearchStats, error) {
					return stream(tree.SearchArea(area, kw, f.rows))
				}, false, byID},
				run{name + " TopK", tc.paper.rt, paperSig, near, func() ([]Result, SearchStats, error) {
					return tc.paper.TopK(len(f.objects)+1, p, kw)
				}, true, byPtr})
		}
		runs = append(runs, run{"RTree TopK", f.base.rt, nil, near, func() ([]Result, SearchStats, error) {
			return f.base.TopK(len(f.objects)+1, p, kw)
		}, true, byPtr})
		for _, q := range runs {
			where := fmt.Sprintf("trial %d %s %v", trial, q.kind, kw)
			refs, ts := decodedSearch(t, q.rt, q.sig, q.dist)
			var want []objstore.ID
			for _, ref := range refs {
				if o := q.obj(ref); textutil.ContainsAll(o.Text, kws) {
					want = append(want, o.ID)
				}
			}
			got, st, err := q.results()
			if err != nil {
				t.Fatal(err)
			}
			ids := resultIDs(got)
			if !slices.Equal(ids, want) {
				t.Fatalf("%s: got %v, decoded walk %v", where, ids, want)
			}
			for i, r := range got {
				if d := q.dist(geo.PointRect(r.Object.Point)); r.Dist != d {
					t.Fatalf("%s: result %d at %g, want %g", where, i, r.Dist, d)
				}
				if i > 0 && got[i-1].Dist > r.Dist {
					t.Fatalf("%s: order violated at %d", where, i)
				}
			}
			if slices.Sort(ids); !slices.Equal(ids, brute) {
				t.Fatalf("%s: result set %v, brute force %v", where, ids, brute)
			}
			wantStats := SearchStats{
				NodesLoaded: ts.NodesLoaded, EntriesPruned: ts.EntriesPruned,
				NodesEnqueued: ts.NodesEnqueued, ObjectsEnqueued: ts.ObjectsEnqueued,
				ObjectsLoaded: len(want), FalsePositives: len(refs) - len(want),
			}
			if q.paper {
				wantStats.ObjectsLoaded = len(refs)
			}
			if st != wantStats {
				t.Fatalf("%s: stats %+v, decoded walk %+v", where, st, wantStats)
			}
			pruned += ts.EntriesPruned
		}
	}
	if pruned == 0 {
		t.Fatal("no entry pruned in any trial: the signature test is inert")
	}
}
