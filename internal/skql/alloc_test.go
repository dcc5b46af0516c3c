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
