//go:build !race

// Allocation-regression gates for the warm query path. Skipped under -race:
// the race detector's allocation instrumentation breaks
// testing.AllocsPerRun's accounting. (The same queries run race-enabled in
// the ordinary correctness tests.)
package core

import (
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
)

// newWarmTree builds a small in-memory IR²-Tree over a few hundred objects.
func newWarmTree(t *testing.T) *IR2Tree {
	t.Helper()
	store := objstore.New(storage.NewDisk(4096))
	words := []string{"pizza", "cafe", "bar", "sushi", "deli", "pub", "grill", "bakery"}
	for i := 0; i < 400; i++ {
		text := words[i%len(words)] + " " + words[(i+3)%len(words)]
		if _, _, err := store.Append(geo.NewPoint(float64(i%20)*5, float64(i/20)*5), text); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	x, err := New(storage.NewDisk(4096), store, Options{
		LeafSignature: sigfile.Config{LengthBytes: 16, BitsPerWord: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Build(); err != nil {
		t.Fatal(err)
	}
	return x
}

// TestWarmTopKAllocBounded gates the distance-first query: once the node
// cache is warm, a TopK's allocations are per-query constants plus the
// materialized result objects — never a per-node decode storm. The budget
// is an absolute ceiling with headroom over the measured steady state (~64);
// decoding every visited node would run an order of magnitude above it.
func TestWarmTopKAllocBounded(t *testing.T) {
	x := newWarmTree(t)
	p := geo.NewPoint(50, 50)
	run := func() {
		if _, _, err := x.TopK(5, p, []string{"pizza"}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the node cache and pools
	allocs := testing.AllocsPerRun(100, run)
	const budget = 128
	if allocs > budget {
		t.Fatalf("warm TopK allocates %.1f objects/op, want <= %d", allocs, budget)
	}
}

// TestWarmWithinAreaAllocBounded gates the range query's packed walk: with
// the node cache warm, its allocations are the candidate list, the batch
// load and the results — nothing per node visited.
func TestWarmWithinAreaAllocBounded(t *testing.T) {
	x := newWarmTree(t)
	area := geo.NewRect(geo.NewPoint(20, 20), geo.NewPoint(70, 70))
	var results, nodes int
	run := func() {
		res, stats, err := x.WithinArea(area, []string{"pizza"})
		if err != nil {
			t.Fatal(err)
		}
		results, nodes = len(res), stats.NodesLoaded
	}
	run()
	allocs := testing.AllocsPerRun(100, run)
	if results == 0 || nodes < 3 {
		t.Fatalf("degenerate workload: %d results from %d nodes", results, nodes)
	}
	t.Logf("warm WithinArea: %.1f allocs/op for %d results over %d nodes", allocs, results, nodes)
	const budget = 192
	if allocs > budget {
		t.Fatalf("warm WithinArea allocates %.1f objects/op, want <= %d", allocs, budget)
	}
}

// TestWarmRankedAllocBounded gates the general ranked query the same way.
func TestWarmRankedAllocBounded(t *testing.T) {
	x := newWarmTree(t)
	sc := irscore.NewScorer(400, func(string) int { return 50 })
	p := geo.NewPoint(50, 50)
	run := func() {
		if _, _, err := topKRanked(x, 5, p, []string{"pizza", "cafe"}, GeneralOptions{Scorer: sc}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(100, run)
	const budget = 160
	if allocs > budget {
		t.Fatalf("warm ranked top-k allocates %.1f objects/op, want <= %d", allocs, budget)
	}
}
