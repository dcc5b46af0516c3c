package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/textutil"
)

// bruteTopKArea is the reference area query: filter by containment, sort by
// rect distance (ties by ID), take k.
func bruteTopKArea(objs []objstore.Object, k int, area geo.Rect, keywords []string) []objstore.Object {
	kws := textutil.NormalizeAll(keywords)
	var matches []objstore.Object
	for _, o := range objs {
		if textutil.ContainsAll(o.Text, kws) {
			matches = append(matches, o)
		}
	}
	sort.Slice(matches, func(i, j int) bool {
		di := area.MinDistRect(geo.PointRect(matches[i].Point))
		dj := area.MinDistRect(geo.PointRect(matches[j].Point))
		if di != dj {
			return di < dj
		}
		return matches[i].ID < matches[j].ID
	})
	if len(matches) > k {
		matches = matches[:k]
	}
	return matches
}

func TestAreaQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	rows := randomRows(rng, 400)
	f := buildFixture(t, rows, 4, 8)
	for trial := 0; trial < 10; trial++ {
		lo := geo.NewPoint(rng.Float64()*800, rng.Float64()*800)
		area := geo.NewRect(lo, geo.NewPoint(lo[0]+100+rng.Float64()*200, lo[1]+100+rng.Float64()*200))
		kw := []string{"pool"}
		if trial%2 == 1 {
			kw = []string{"internet", "spa"}
		}
		want := objIDs(bruteTopKArea(f.objects, 10, area, kw))
		for name, tree := range map[string]*IR2Tree{"IR2": f.ir2, "MIR2": f.mir2} {
			got, _, err := topKArea(tree, 10, area, kw)
			if err != nil {
				t.Fatal(err)
			}
			// Distances tie inside the area (all zero); compare the
			// distance sequence and the membership instead of exact order.
			if len(got) != len(want) {
				t.Fatalf("trial %d (%s): %d results, want %d", trial, name, len(got), len(want))
			}
			for i, r := range got {
				wd := area.MinDistRect(geo.PointRect(r.Object.Point))
				if r.Dist != wd {
					t.Fatalf("trial %d (%s) rank %d: dist %g, want %g", trial, name, i, r.Dist, wd)
				}
				if i > 0 && got[i-1].Dist > r.Dist {
					t.Fatalf("trial %d (%s): order violated", trial, name)
				}
			}
			// Same distance multiset as brute force.
			gotD := make([]float64, len(got))
			wantD := make([]float64, len(want))
			for i := range got {
				gotD[i] = got[i].Dist
			}
			bw := bruteTopKArea(f.objects, 10, area, kw)
			for i := range bw {
				wantD[i] = area.MinDistRect(geo.PointRect(bw[i].Point))
			}
			if fmt.Sprint(gotD) != fmt.Sprint(wantD) {
				t.Fatalf("trial %d (%s): distances %v, want %v", trial, name, gotD, wantD)
			}
		}
	}
}

func TestAreaQueryInsideObjectsFirst(t *testing.T) {
	rows := []struct {
		lat, lon float64
		text     string
	}{
		{5, 5, "inside pool"},
		{6, 6, "inside pool too"},
		{50, 50, "outside pool"},
		{5, 5, "inside but no keyword"},
	}
	f := buildFixture(t, rows, 3, 8)
	area := geo.NewRect(geo.NewPoint(0, 0), geo.NewPoint(10, 10))
	got, _, err := topKArea(f.ir2, 3, area, []string{"pool"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	if got[0].Dist != 0 || got[1].Dist != 0 {
		t.Errorf("inside objects should have zero distance: %g, %g", got[0].Dist, got[1].Dist)
	}
	if got[2].Object.ID != 2 || got[2].Dist == 0 {
		t.Errorf("outside object wrong: %+v", got[2])
	}
}

func TestBuildBulkEquivalentToBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	rows := randomRows(rng, 500)
	for _, multilevel := range []bool{false, true} {
		name := "IR2"
		if multilevel {
			name = "MIR2"
		}
		t.Run(name, func(t *testing.T) {
			f := buildFixture(t, rows, 4, 8) // insert-built trees
			bulk := newTreeLike(t, f, multilevel)
			if err := bulk.BuildBulk(); err != nil {
				t.Fatal(err)
			}
			if err := bulk.RTree().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if bulk.RTree().Len() != len(rows) {
				t.Fatalf("Len = %d", bulk.RTree().Len())
			}
			ref := f.ir2
			if multilevel {
				ref = f.mir2
			}
			for trial := 0; trial < 8; trial++ {
				p := geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
				kw := []string{"pool", "internet"}[:1+trial%2]
				a, _, err := ref.TopK(10, p, kw)
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := bulk.TopK(10, p, kw)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(resultIDs(a)) != fmt.Sprint(resultIDs(b)) {
					t.Fatalf("trial %d: insert-built %v, bulk-built %v", trial, resultIDs(a), resultIDs(b))
				}
			}
		})
	}
}

// newTreeLike creates an empty tree with the same options as the fixture's.
func newTreeLike(t *testing.T, f *fixture, multilevel bool) *IR2Tree {
	t.Helper()
	opts := Options{
		LeafSignature: f.ir2.scheme.leaf,
		MaxEntries:    f.ir2.RTree().MaxEntries(),
	}
	if multilevel {
		opts.Multilevel = true
		opts.AvgWordsPerObject = f.vocab.AvgUniqueWordsPerDoc()
		opts.VocabSize = f.vocab.NumWords()
	}
	tree, err := New(newDisk(), f.store, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestBuildBulkEmptyStore(t *testing.T) {
	store := objstore.New(newDisk())
	tree, err := New(newDisk(), store, Options{
		LeafSignature: f8(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BuildBulk(); err != nil {
		t.Fatal(err)
	}
	if tree.RTree().Len() != 0 {
		t.Error("empty bulk build populated tree")
	}
}
