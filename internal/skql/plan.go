package skql

import (
	"fmt"

	"spatialkeyword/internal/textutil"
)

// Operator is one physical operator: an engine-level query with a
// pushed-down conjunction plus residual filtering applied by the
// executor.
type Operator struct {
	// Path is the access path. The pushed Conj reaches the engine
	// only on PathIR2 (signature pruning) and PathIIO (posting-list
	// intersection); PathRTree runs the bare spatial query and
	// filters everything residually.
	Path Path
	// Conj are the positive terms this operator requires (normalized).
	Conj []string
	// Neg are negated terms filtered residually (normalized).
	Neg []string
	// Residual, when non-nil, is the full boolean tree the executor
	// re-checks on every candidate (used by single-scan operators;
	// DNF branch operators encode their predicate in Conj/Neg alone).
	Residual Expr
	// K is the per-operator fetch target (0 = unbounded, area scans).
	K int
	// Est is the cost model's verdict for this operator.
	Est PathEstimate
}

// requires reports whether the object's term set satisfies the
// operator's predicate (Conj+Neg and Residual).
func (op *Operator) requires(has func(string) bool) bool {
	for _, t := range op.Conj {
		if !has(t) {
			return false
		}
	}
	for _, t := range op.Neg {
		if has(t) {
			return false
		}
	}
	if op.Residual != nil && !evalExpr(op.Residual, has) {
		return false
	}
	return true
}

// Plan is a costed physical plan.
type Plan struct {
	// Query is the statement the plan answers.
	Query *Query
	// Tree is the analyzer-normalized boolean tree (nil: match all).
	Tree Expr
	// Common are the conjuncts shared by every DNF branch (pushed
	// into single-scan operators for signature pruning).
	Common []string
	// DNF reports that Ops are the branches of a DNF split, combined as
	// the projection asks; false means a single scan (or ranked) operator.
	DNF bool
	// Ops are the physical operators, executed independently.
	Ops []Operator
	// In are the cost inputs the estimates were computed from.
	In CostInputs
	// an is the text pipeline of the corpus In describes: it normalised
	// Tree, and residual filters tokenise candidate rows with it.
	an *textutil.Analyzer
	// EstBlocks and EstRows are the plan-total estimates.
	EstBlocks float64
	EstRows   float64
}

// ReadsIndex reports whether running the plan reads the catalog's
// sidecar inverted index: some operator is on the IIO path and the
// statement executes (a plain EXPLAIN only plans).
func (p *Plan) ReadsIndex() bool {
	if p.Query.Explain && !p.Query.Analyze {
		return false
	}
	for i := range p.Ops {
		if p.Ops[i].Path == PathIIO {
			return true
		}
	}
	return false
}

// validate enforces the semantic rules the grammar cannot.
func validate(q *Query) error {
	switch q.Proj {
	case ProjTop:
		if q.Near == nil && q.Within == nil {
			return fmt.Errorf("skql: SELECT TOP requires NEAR or WITHIN")
		}
	case ProjRanked:
		if q.Near == nil {
			return fmt.Errorf("skql: SELECT RANKED requires NEAR")
		}
		if q.Match == nil {
			return fmt.Errorf("skql: SELECT RANKED requires MATCH")
		}
		if q.Force != PathAuto {
			return fmt.Errorf("skql: SELECT RANKED always uses the scored traversal; drop USING %s", q.Force)
		}
	case ProjAll, ProjCount:
		if q.Within == nil {
			return fmt.Errorf("skql: SELECT %s requires WITHIN", q.Proj)
		}
		if q.Near != nil {
			return fmt.Errorf("skql: SELECT %s does not take NEAR (results are unordered by distance)", q.Proj)
		}
	}
	if q.Where != nil && q.Proj != ProjRanked {
		// The paper's Score > 0 reads as "matches the keyword
		// predicate", which every result of a boolean projection
		// already does; real thresholds need scored results.
		if q.Where.Op != CmpGT || q.Where.Value != 0 {
			return fmt.Errorf("skql: WHERE score %s %s requires SELECT RANKED (boolean projections only support the no-op score > 0)",
				q.Where.Op, formatFloat(q.Where.Value))
		}
	}
	if q.Within != nil {
		for d := 0; d < 2; d++ {
			if q.Within.Lo[d] > q.Within.Hi[d] {
				return fmt.Errorf("skql: inverted WITHIN rect on axis %d (%g > %g)", d, q.Within.Lo[d], q.Within.Hi[d])
			}
		}
	}
	return nil
}

// BuildPlan lowers a parsed query to a costed physical plan without
// executing it.
func (c *Catalog) BuildPlan(q *Query) (*Plan, error) {
	if err := validate(q); err != nil {
		return nil, err
	}
	// Do a read's storage work now (Reader.PrepareRead): a first read packs
	// the rows queued for an empty tree, whose height the cost model needs,
	// and neither that nor writing out the object file's open block may be
	// charged to the first executed operator's EXPLAIN ANALYZE actuals.
	if err := c.t.PrepareRead(); err != nil {
		return nil, err
	}
	// Document frequencies are the target's own, and so is the pipeline
	// the terms they are keyed by went through.
	cs := c.t.Corpus()
	p := &Plan{Query: q, an: cs.Analyzer, In: CostInputs{
		NumObjects: c.t.NumObjects(),
		DocFreq:    cs.DocFreq,
		TreeHeight: c.t.Stats().TreeHeight,
	}}

	var err error
	if q.Match != nil {
		tree, err := normalizeTree(q.Match, p.an)
		if err != nil {
			return nil, err
		}
		p.Tree = tree
	}

	switch q.Proj {
	case ProjRanked:
		err = c.planRanked(p)
	case ProjAll, ProjCount:
		err = c.planArea(p)
	default:
		err = c.planTop(p)
	}
	if err != nil {
		return nil, err
	}
	for _, op := range p.Ops {
		p.EstBlocks += op.Est.Blocks
		p.EstRows += op.Est.Rows
	}
	if q.Proj == ProjTop || q.Proj == ProjRanked {
		if kf := float64(q.K); p.EstRows > kf {
			p.EstRows = kf
		}
	}
	return p, nil
}

// selOf adapts CostInputs to the selectivity walker.
func selOf(in CostInputs) func(string) float64 {
	return in.TermSelectivity
}

func selConj(in CostInputs, terms []string) float64 {
	s := 1.0
	for _, t := range terms {
		s *= in.TermSelectivity(t)
	}
	return s
}

func negSel(in CostInputs, neg []string) float64 {
	s := 1.0
	for _, t := range neg {
		s *= 1 - in.TermSelectivity(t)
	}
	return s
}

// fullSelectivity is the estimated match fraction of the whole tree
// (1 when there is no MATCH clause).
func fullSelectivity(in CostInputs, tree Expr) float64 {
	if tree == nil {
		return 1
	}
	return clamp01(selectivityExpr(tree, selOf(in)))
}

// residualAfter returns the residual selectivity once the pushed
// conjuncts are accounted for: fullSel / sel(conj), clamped.
func residualAfter(fullSel, conjSel float64) float64 {
	if conjSel <= 0 {
		return 0
	}
	return clamp01(fullSel / conjSel)
}

// topAndPos extracts the positive top-level conjuncts of an NNF tree —
// the terms pushable into a single scan when a DNF split is off the
// table.
func topAndPos(e Expr) []string {
	switch n := e.(type) {
	case Term:
		return []string{n.Word}
	case And:
		var out []string
		for _, k := range n.Kids {
			if t, ok := k.(Term); ok {
				out = append(out, t.Word)
			}
		}
		return sortDedup(out)
	}
	return nil
}

// planTop plans a distance-first TOP k: a DNF branch union when the
// split is available and cheaper, otherwise a single scan with the
// common conjuncts pushed down.
func (c *Catalog) planTop(p *Plan) error {
	q := p.Query
	in := p.In

	if p.Tree == nil {
		// Pure spatial query: the IR²-Tree without keywords is a
		// plain R-Tree walk.
		if q.Force == PathIIO {
			return fmt.Errorf("skql: USING iio requires MATCH keywords (no posting lists to intersect)")
		}
		p.Ops = []Operator{{Path: PathRTree, K: q.K, Est: in.EstimateRTree(q.K, 1)}}
		return nil
	}

	nt := nnf(p.Tree, false)
	branches, dnfOK := dnfSplit(nt, DefaultMaxBranches)
	fullSel := fullSelectivity(in, p.Tree)

	if dnfOK {
		p.Common = commonConjuncts(branches)
	} else {
		p.Common = topAndPos(nt)
	}

	// Candidate A: the DNF branch union.
	var branchOps []Operator
	branchesOK := dnfOK
	if dnfOK {
		if len(branches) == 0 {
			// Contradictory predicate: matches nothing.
			p.DNF = true
			p.Ops = nil
			return nil
		}
		for _, b := range branches {
			op, ok := branchOperator(in, q.K, b, q.Force)
			if !ok {
				branchesOK = false
				break
			}
			branchOps = append(branchOps, op)
		}
	}

	// Candidate B: one scan with the common conjuncts pushed down.
	scanOp := scanOperator(in, q.K, p.Common, p.Tree, fullSel, q.Force)

	switch q.Force {
	case PathIIO:
		if !branchesOK {
			return fmt.Errorf("skql: USING iio requires a conjunctive keyword tree (DNF split over %d branches failed or a branch has no positive keyword)", DefaultMaxBranches)
		}
		p.DNF, p.Ops = true, branchOps
		return nil
	case PathRTree:
		p.Ops = []Operator{scanOp}
		return nil
	case PathIR2:
		if branchesOK {
			p.DNF, p.Ops = true, branchOps
		} else {
			p.Ops = []Operator{scanOp}
		}
		return nil
	}

	// Auto: cheaper total estimate wins.
	if branchesOK {
		var total float64
		for _, op := range branchOps {
			total += op.Est.Blocks
		}
		if total <= scanOp.Est.Blocks {
			p.DNF, p.Ops = true, branchOps
			return nil
		}
	}
	p.Ops = []Operator{scanOp}
	return nil
}

// branchOperator plans one DNF branch, honoring a forced path. ok is
// false when the forced path cannot run this branch (no positive term
// for IIO/IR2 pruning).
func branchOperator(in CostInputs, k int, b Conj, force Path) (Operator, bool) {
	op := Operator{Conj: b.Pos, Neg: b.Neg, K: k}
	rn := negSel(in, b.Neg)
	switch force {
	case PathIIO:
		if len(b.Pos) == 0 {
			return op, false
		}
		op.Path, op.Est = PathIIO, in.EstimateIIO(k, b.Pos, rn)
		return op, true
	case PathIR2:
		if len(b.Pos) == 0 {
			return op, false
		}
		op.Path, op.Est = PathIR2, in.EstimateIR2(k, b.Pos, rn)
		return op, true
	}
	// Auto: cheapest of the paths that can run the branch.
	best := Operator{Conj: b.Pos, Neg: b.Neg, K: k,
		Path: PathRTree, Est: in.EstimateRTree(k, selConj(in, b.Pos)*rn)}
	if len(b.Pos) > 0 {
		if e := in.EstimateIR2(k, b.Pos, rn); e.Blocks < best.Est.Blocks {
			best.Path, best.Est = PathIR2, e
		}
		if e := in.EstimateIIO(k, b.Pos, rn); e.Blocks < best.Est.Blocks {
			best.Path, best.Est = PathIIO, e
		}
	}
	return best, true
}

// scanOperator plans the single-scan fallback: push the common
// conjuncts (unless the R-Tree path is forced) and re-check the full
// tree residually.
func scanOperator(in CostInputs, k int, common []string, tree Expr, fullSel float64, force Path) Operator {
	if force == PathRTree || len(common) == 0 {
		return Operator{Path: PathRTree, Residual: tree, K: k, Est: in.EstimateRTree(k, fullSel)}
	}
	resid := residualAfter(fullSel, selConj(in, common))
	return Operator{Path: PathIR2, Conj: common, Residual: tree, K: k,
		Est: in.EstimateIR2(k, common, resid)}
}

// planRanked plans a RANKED k: the MIR²-Tree scored traversal over the
// positive terms, with the boolean tree (and score threshold) applied
// as a residual filter.
func (c *Catalog) planRanked(p *Plan) error {
	q := p.Query
	nt := nnf(p.Tree, false)
	pos := appendTerms(nil, nt, true)
	if len(pos) == 0 {
		return fmt.Errorf("skql: SELECT RANKED requires at least one positive keyword to score")
	}
	residual := p.Tree
	if t, ok := nt.(Term); ok && len(pos) == 1 && t.Word == pos[0] {
		residual = nil // single positive term: the traversal's own match suffices
	}
	p.Ops = []Operator{{
		Path: PathRanked, Conj: pos, Residual: residual, K: q.K,
		Est: p.In.EstimateRankedScan(q.K, pos, fullSelectivity(p.In, p.Tree)),
	}}
	return nil
}

// planArea plans ALL/COUNT over a rectangle: the engine's native range
// scan with pushed conjuncts, or the sidecar IIO intersection when the
// keywords are selective enough to beat visiting the rectangle.
func (c *Catalog) planArea(p *Plan) error {
	q := p.Query
	in := p.In

	if p.Tree == nil {
		if q.Force == PathIIO {
			return fmt.Errorf("skql: USING iio requires MATCH keywords (no posting lists to intersect)")
		}
		p.Ops = []Operator{{Path: PathRTree, Est: in.EstimateAreaNative(nil, 1)}}
		return nil
	}

	nt := nnf(p.Tree, false)
	if branches, ok := dnfSplit(nt, DefaultMaxBranches); ok {
		if len(branches) == 0 {
			p.Ops = nil
			return nil
		}
		p.Common = commonConjuncts(branches)
	} else {
		p.Common = topAndPos(nt)
	}
	fullSel := fullSelectivity(in, p.Tree)
	resid := residualAfter(fullSel, selConj(in, p.Common))

	native := Operator{Path: PathRTree, Residual: p.Tree, Est: in.EstimateAreaNative(nil, fullSel)}
	if len(p.Common) > 0 {
		native = Operator{Path: PathIR2, Conj: p.Common, Residual: p.Tree,
			Est: in.EstimateAreaNative(p.Common, resid)}
	}

	switch q.Force {
	case PathRTree:
		p.Ops = []Operator{{Path: PathRTree, Residual: p.Tree, Est: in.EstimateAreaNative(nil, fullSel)}}
		return nil
	case PathIR2:
		p.Ops = []Operator{native}
		return nil
	case PathIIO:
		if len(p.Common) == 0 {
			return fmt.Errorf("skql: USING iio requires at least one keyword common to every MATCH alternative")
		}
		p.Ops = []Operator{{Path: PathIIO, Conj: p.Common, Residual: p.Tree,
			Est: in.EstimateIIO(0, p.Common, resid)}}
		return nil
	}

	if len(p.Common) > 0 {
		iio := Operator{Path: PathIIO, Conj: p.Common, Residual: p.Tree,
			Est: in.EstimateIIO(0, p.Common, resid)}
		if iio.Est.Blocks < native.Est.Blocks {
			p.Ops = []Operator{iio}
			return nil
		}
	}
	p.Ops = []Operator{native}
	return nil
}
