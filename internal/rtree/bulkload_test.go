package rtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

func bulkEntries(rng *rand.Rand, n int) []BulkEntry {
	out := make([]BulkEntry, n)
	for i := range out {
		p := geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
		out[i] = BulkEntry{Ref: uint64(i), Rect: geo.PointRect(p)}
	}
	return out
}

func TestBulkLoadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 2, 5, 16, 17, 100, 1000, 2500} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			tree := newTestTree(t, 16)
			if err := tree.BulkLoad(bulkEntries(rng, n), nil); err != nil {
				t.Fatal(err)
			}
			if tree.Len() != n {
				t.Errorf("Len = %d, want %d", tree.Len(), n)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBulkLoadSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	entries := bulkEntries(rng, 800)
	tree := newTestTree(t, 8)
	if err := tree.BulkLoad(entries, nil); err != nil {
		t.Fatal(err)
	}
	q := geo.NewPoint(500, 500)
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da := entries[order[a]].Rect.MinDist(q)
		db := entries[order[b]].Rect.MinDist(q)
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	it := tree.NearestNeighbors(q, nil)
	for rank := range entries {
		ref, dist, ok, err := it.Next()
		if err != nil || !ok {
			t.Fatalf("rank %d: ok=%v err=%v", rank, ok, err)
		}
		want := entries[order[rank]].Rect.MinDist(q)
		if dist != want {
			t.Fatalf("rank %d: dist %g want %g (ref %d)", rank, dist, want, ref)
		}
	}
}

func TestBulkLoadWithAux(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	tree, _ := newAuxTree(t, orScheme{n: 4}, 8)
	entries := make([]BulkEntry, 300)
	for i := range entries {
		p := geo.NewPoint(rng.Float64()*100, rng.Float64()*100)
		entries[i] = BulkEntry{Ref: uint64(i), Rect: geo.PointRect(p), Aux: refMask(uint64(i))}
	}
	if err := tree.BulkLoad(entries, nil); err != nil {
		t.Fatal(err)
	}
	// CheckInvariants validates every parent payload against NodeAux.
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Mutations after a bulk load keep working.
	if err := tree.Insert(999, geo.PointRect(geo.NewPoint(50, 50)), refMask(999), nil); err != nil {
		t.Fatal(err)
	}
	if ok, err := tree.Delete(0, entries[0].Rect); err != nil || !ok {
		t.Fatalf("delete after bulk: %v %v", ok, err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadValidation(t *testing.T) {
	tree := newTestTree(t, 8)
	if err := tree.BulkLoad(nil, nil); err == nil {
		t.Error("empty bulk load accepted")
	}
	if err := tree.BulkLoad([]BulkEntry{{Ref: 1, Rect: geo.PointRect(geo.NewPoint(1, 2, 3))}}, nil); err == nil {
		t.Error("wrong-dimension entry accepted")
	}
	if err := tree.BulkLoad([]BulkEntry{{Ref: 1, Rect: geo.PointRect(geo.NewPoint(1, 2)), Aux: []byte{1}}}, nil); err == nil {
		t.Error("wrong payload length accepted")
	}
	if err := tree.Insert(1, geo.PointRect(geo.NewPoint(0, 0)), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(bulkEntries(rand.New(rand.NewSource(1)), 5), nil); err == nil {
		t.Error("bulk load into non-empty tree accepted")
	}
}

// blocks is a Stats' block accesses of either kind.
func blocks(st storage.Stats) uint64 { return st.Random() + st.Sequential() }

func TestBulkLoadCheaperAndTighterThanInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	entries := bulkEntries(rng, 2000)

	insDisk := storage.NewDisk(4096)
	insTree, err := New(insDisk, Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := insTree.Insert(e.Ref, e.Rect, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	insertIO := blocks(insDisk.Stats())

	bulkDisk := storage.NewDisk(4096)
	bulkTree, err := New(bulkDisk, Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := bulkTree.BulkLoad(entries, nil); err != nil {
		t.Fatal(err)
	}
	bulkIO := blocks(bulkDisk.Stats())

	if bulkIO*5 > insertIO {
		t.Errorf("bulk load I/O %d not well below insert I/O %d", bulkIO, insertIO)
	}

	// STR packing also yields equal-or-fewer nodes (better fill).
	if bulkTree.NumNodes() > insTree.NumNodes() {
		t.Errorf("bulk tree has %d nodes, insert tree %d", bulkTree.NumNodes(), insTree.NumNodes())
	}

	// And equal-or-cheaper queries on average.
	var bulkNodes, insNodes int
	for trial := 0; trial < 20; trial++ {
		q := geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
		itB := bulkTree.NearestNeighbors(q, nil)
		itI := insTree.NearestNeighbors(q, nil)
		for i := 0; i < 10; i++ {
			if _, _, ok, err := itB.Next(); err != nil || !ok {
				t.Fatal(err)
			}
			if _, _, ok, err := itI.Next(); err != nil || !ok {
				t.Fatal(err)
			}
		}
		bulkNodes += itB.TraversalStats().NodesLoaded
		insNodes += itI.TraversalStats().NodesLoaded
	}
	if bulkNodes > insNodes*3/2 {
		t.Errorf("bulk-loaded tree queries load %d nodes vs %d", bulkNodes, insNodes)
	}
}

func TestCeilRoot(t *testing.T) {
	tests := []struct{ n, k, want int }{
		{1, 2, 1}, {4, 2, 2}, {5, 2, 3}, {9, 2, 3}, {10, 2, 4},
		{8, 3, 2}, {9, 3, 3}, {27, 3, 3}, {100, 1, 100}, {0, 5, 0},
	}
	for _, tt := range tests {
		if got := ceilRoot(tt.n, tt.k); got != tt.want {
			t.Errorf("ceilRoot(%d, %d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
}
