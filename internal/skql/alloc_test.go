//go:build !race

package skql

import "testing"

// TestResidualFilterAllocFree gates SKQL's per-candidate residual filter:
// on the plain pipeline, testing a candidate's text allocates nothing.
// Skipped under -race (the detector breaks AllocsPerRun).
func TestResidualFilterAllocFree(t *testing.T) {
	accept, row := residualAccept(t)
	allocs := testing.AllocsPerRun(100, func() {
		if !accept(row) {
			t.Fatal("row rejected")
		}
	})
	if allocs != 0 {
		t.Errorf("residual filter allocates %.1f objects per candidate, want 0", allocs)
	}
}

// iioTopAllocs is what a warm forced-IIO TOP 10 on 4 shards allocates
// (iioTopCatalog's statement): the plan, the meters, the result and its
// ten rows — 64 measured. The sidecar's posting lists, the candidates and
// their heap live in pooled scratch and add nothing, and a meter reads the
// shards' device counters into one sum, with no closure per shard.
const iioTopAllocs = 64

// TestIIOTopAllocs gates a warm forced-IIO TOP: it may allocate no more
// than iioTopAllocs objects per statement. Skipped under -race.
func TestIIOTopAllocs(t *testing.T) {
	c, q := iioTopCatalog(t)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.Run(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > iioTopAllocs {
		t.Errorf("a warm IIO TOP 10 allocates %.1f objects, want at most %d", allocs, iioTopAllocs)
	}
}
