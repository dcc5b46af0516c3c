package spatialkeyword

import (
	"fmt"

	"spatialkeyword/internal/core"
	"spatialkeyword/internal/rtree"
)

// Explain answers a distance-first top-k query like TopK and additionally
// returns a human-readable trace of the traversal — the library's analogue
// of the paper's Example 1/3 walk-throughs. Each line is one step: nodes
// expanded in best-first order, entries enqueued with their distance lower
// bounds, subtrees pruned by the signature check, and objects emitted. The
// metrics sink sees it as op "explain".
func (e *Engine) Explain(k int, point []float64, keywords ...string) ([]Result, []string, error) {
	it, err := e.search("explain", k, point, keywords)
	if err != nil {
		return nil, nil, err
	}
	defer it.Close()
	var trace []string
	it.SetTrace(func(ev rtree.TraceEvent) { trace = append(trace, ev.String()) })
	out, err := core.TakeK(k, it.Next)
	if err != nil {
		return nil, trace, err
	}
	st := it.Stats()
	trace = append(trace, fmt.Sprintf(
		"done: %d results, %d nodes expanded, %d objects loaded, %d false positives",
		len(out), st.NodesLoaded, st.ObjectsLoaded, st.FalsePositives))
	return out, trace, nil
}
