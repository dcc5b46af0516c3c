//go:build !race

package main

import (
	"strings"
	"testing"

	"spatialkeyword"
)

// TestAppendedResponseAllocs gates the appended body: a warm 10-row ranked
// answer, Hotels-length rows with escaped and non-ASCII text, appends into a
// buffer that already fits it without allocating.
func TestAppendedResponseAllocs(t *testing.T) {
	rs := make([]spatialkeyword.RankedResult, 10)
	for i := range rs {
		rs[i] = spatialkeyword.RankedResult{
			Object: spatialkeyword.Object{ID: uint64(1000 + i), Point: []float64{25.4 + float64(i), -80.1},
				Text: strings.Repeat("hotel pool <spa> & caf\u00e9 \"wifi\" ", 60)},
			Dist: 12.5 * float64(i), IRScore: 0.626381484247684, Score: 1e-7 * float64(i+1),
		}
	}
	resp := &rankedResponse{Results: rs}
	body, _ := resp.appendJSON(nil)
	if n := testing.AllocsPerRun(100, func() { body, _ = resp.appendJSON(body[:0]) }); n != 0 {
		t.Fatalf("a warm 10-row ranked body allocates %v times, want 0", n)
	}
}
