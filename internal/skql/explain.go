package skql

import (
	"fmt"
	"strings"
	"time"

	"spatialkeyword/internal/storage"
)

// mergeNames names, for EXPLAIN, how each projection combines its
// operators' outputs: the k nearest deduplicated by ID, the single ranked
// operator's k best, the ID-ordered union, or its cardinality.
var mergeNames = [...]string{
	ProjTop:    "distance",
	ProjRanked: "ranked",
	ProjAll:    "union",
	ProjCount:  "count",
}

// renderPlan formats a plan (and, when actuals is non-nil, its
// execution record) as EXPLAIN / EXPLAIN ANALYZE lines.
func renderPlan(p *Plan, actuals []OpActual) []string {
	q := p.Query
	var out []string
	out = append(out, q.String())

	shape := "single scan"
	switch {
	case len(p.Ops) == 0:
		shape = "empty (predicate matches nothing)"
	case p.DNF:
		shape = fmt.Sprintf("dnf union of %d branches", len(p.Ops))
	}
	head := fmt.Sprintf("plan: %s", strings.ToLower(q.Proj.String()))
	if q.Proj == ProjTop || q.Proj == ProjRanked {
		head += fmt.Sprintf(" %d", q.K)
	}
	head += fmt.Sprintf(", merge=%s, %s", mergeNames[q.Proj], shape)
	if q.Force != PathAuto {
		head += fmt.Sprintf(", forced path=%s", q.Force)
	}
	out = append(out, head)

	if len(p.Common) > 0 {
		out = append(out, fmt.Sprintf("  common conjuncts: %v", p.Common))
	}
	out = append(out, fmt.Sprintf("  cost inputs: n=%d height=%.0f fanout=%.0f postings/block=%.0f blocks/object=%.1f",
		p.In.NumObjects, p.In.height(), treeFanout, postingsPerBlock, blocksPerObject))

	for i := range p.Ops {
		op := &p.Ops[i]
		line := fmt.Sprintf("  op %d: path=%s", i+1, op.Path)
		if len(op.Conj) > 0 {
			line += fmt.Sprintf(" conj=%v", op.Conj)
		}
		if len(op.Neg) > 0 {
			line += fmt.Sprintf(" neg=%v", op.Neg)
		}
		if op.Residual != nil {
			line += " residual=" + ExprString(op.Residual)
		}
		if op.K > 0 {
			line += fmt.Sprintf(" k=%d", op.K)
		}
		out = append(out, line)
		out = append(out, fmt.Sprintf("    est:    blocks=%.1f rows=%.1f sel=%.4g disk=%s",
			op.Est.Blocks, op.Est.Rows, op.Est.Selectivity, ModeledTime(op.Est.Blocks)))
		if actuals == nil || i >= len(actuals) {
			continue
		}
		a := actuals[i]
		out = append(out, fmt.Sprintf("    actual: blocks=%d (%d rand + %d seq) rows=%d candidates=%d disk=%s",
			a.BlocksRandom+a.BlocksSequential, a.BlocksRandom, a.BlocksSequential,
			a.Rows, a.Candidates, actualTime(a.BlocksRandom, a.BlocksSequential)))
		if a.NodesLoaded > 0 || a.ObjectsLoaded > 0 {
			out = append(out, fmt.Sprintf("    work:   nodes=%d objects=%d pruned=%d falsepos=%d",
				a.NodesLoaded, a.ObjectsLoaded, a.EntriesPruned, a.FalsePositives))
		}
		for _, t := range a.Trace {
			out = append(out, "    | "+t)
		}
	}

	out = append(out, fmt.Sprintf("  total: est blocks=%.1f est rows=%.1f est disk=%s",
		p.EstBlocks, p.EstRows, ModeledTime(p.EstBlocks)))
	return out
}

// actualTime converts measured block counts into modeled disk time,
// charging random and sequential accesses at their own rates (unlike
// plan estimates, actuals know which accesses coalesced).
func actualTime(random, sequential uint64) time.Duration {
	m := storage.DefaultCostModel()
	return time.Duration(random)*m.RandomAccess + time.Duration(sequential)*m.SequentialAccess
}
