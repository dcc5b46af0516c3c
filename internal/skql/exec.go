package skql

import (
	"errors"
	"fmt"
	"sort"

	"spatialkeyword"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/obs"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/storage"
)

// maxTraceLines caps how much of the engine traversal trace EXPLAIN
// ANALYZE folds into its output per operator.
const maxTraceLines = 40

// OpActual records what one operator actually did at execution time,
// for EXPLAIN ANALYZE's estimated-vs-actual comparison.
type OpActual struct {
	// Rows is how many results the operator emitted (pre-merge).
	Rows int
	// Candidates is how many candidates the operator examined before
	// residual filtering (stream results pulled, or posting-intersection
	// cardinality).
	Candidates int
	// Work is the operator's work record: the engine's traversal
	// counters when the path exposes them (zero for IIO and stat-less
	// engine calls), and the block accesses of every device the
	// operator touched (the engine's plus the sidecar index).
	obs.Work
	// Trace is the folded engine traversal trace (EXPLAIN ANALYZE
	// only), capped at maxTraceLines.
	Trace []string
}

// ResultSet is the answer of one executed (or explained) statement.
type ResultSet struct {
	// Proj echoes the statement's projection, which selects among the
	// payload fields below.
	Proj Proj
	// Results holds TOP and ALL answers (ALL: Dist 0, ID order).
	Results []spatialkeyword.Result
	// Ranked holds RANKED answers.
	Ranked []spatialkeyword.RankedResult
	// Count holds the COUNT answer (also set for ALL).
	Count int
	// Actuals has one entry per plan operator once executed.
	Actuals []OpActual
	// Explain is the rendered EXPLAIN / EXPLAIN ANALYZE text, one
	// line per entry, when the statement requested it.
	Explain []string
}

// Run plans and executes one statement. EXPLAIN (without ANALYZE)
// only plans; EXPLAIN ANALYZE executes and reports both the results
// and the estimated-vs-actual comparison.
func (c *Catalog) Run(q *Query) (*ResultSet, error) {
	p, err := c.BuildPlan(q)
	if err != nil {
		return nil, err
	}
	return c.RunPlan(p)
}

// RunPlan executes an already built plan — callers that want to time
// planning and execution separately (or re-run a plan) use this pair
// instead of Run.
func (c *Catalog) RunPlan(p *Plan) (*ResultSet, error) {
	q := p.Query
	rs := &ResultSet{Proj: q.Proj}
	if q.Explain && !q.Analyze {
		rs.Explain = renderPlan(p, nil)
		return rs, nil
	}
	if err := c.execute(p, rs); err != nil {
		return nil, err
	}
	if q.Explain {
		rs.Explain = renderPlan(p, rs.Actuals)
	}
	return rs, nil
}

func (c *Catalog) execute(p *Plan, rs *ResultSet) error {
	// RunPlan may execute a plan built before new adds were buffered;
	// flush outside the operator meters so deferred indexing I/O never
	// inflates an operator's actual block counts.
	if err := c.t.Flush(); err != nil {
		return err
	}
	switch p.Query.Proj {
	case ProjRanked:
		return c.execRanked(p, rs)
	case ProjAll, ProjCount:
		return c.execArea(p, rs)
	default:
		return c.execTop(p, rs)
	}
}

// opMeter snapshots every relevant device counter (the target's
// engines and the sidecar index); the returned function reports the
// blocks accessed since.
func (c *Catalog) opMeter() func() (random, sequential uint64) {
	stops := []func() (uint64, uint64){c.t.MeterIO()}
	c.mu.Lock()
	if c.invDev != nil {
		m := storage.StartMeter(c.invDev)
		stops = append(stops, func() (uint64, uint64) {
			st := m.Stop()
			return st.Random(), st.Sequential()
		})
	}
	c.mu.Unlock()
	return func() (r, s uint64) {
		for _, f := range stops {
			a, b := f()
			r += a
			s += b
		}
		return r, s
	}
}

func termSet(words []string) map[string]bool {
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}

// acceptFn builds the residual predicate for a boolean operator: the
// term filters (Conj, Neg, Residual) plus the hard rectangle filter
// when the projection confines results to the WITHIN rect (ALL/COUNT,
// or TOP combining NEAR with WITHIN; TOP with WITHIN alone orders by
// distance-to-rect and keeps outside objects, matching TopKArea).
func (c *Catalog) acceptFn(p *Plan, op *Operator) func(o spatialkeyword.Object) bool {
	q := p.Query
	needRect := q.Within != nil && (q.Near != nil || q.Proj == ProjAll || q.Proj == ProjCount)
	var rect geo.Rect
	if needRect {
		rect = geo.NewRect(geo.NewPoint(q.Within.Lo[:]...), geo.NewPoint(q.Within.Hi[:]...))
	}
	trivialTerms := len(op.Conj) == 0 && len(op.Neg) == 0 && op.Residual == nil
	return func(o spatialkeyword.Object) bool {
		if needRect && !rect.ContainsPoint(geo.NewPoint(o.Point...)) {
			return false
		}
		if trivialTerms {
			return true
		}
		set := termSet(p.an.Unique(o.Text))
		return op.requires(func(t string) bool { return set[t] })
	}
}

// traceCollector collects engine traversal events as lines, truncating
// at maxTraceLines.
func traceCollector(lines *[]string) func(rtree.TraceEvent) {
	return func(ev rtree.TraceEvent) {
		switch {
		case len(*lines) < maxTraceLines:
			*lines = append(*lines, ev.String())
		case len(*lines) == maxTraceLines:
			*lines = append(*lines, "... trace truncated")
		}
	}
}

// --- TOP k ---

func (c *Catalog) execTop(p *Plan, rs *ResultSet) error {
	q := p.Query
	var all []spatialkeyword.Result
	for i := range p.Ops {
		op := &p.Ops[i]
		var out []spatialkeyword.Result
		var act OpActual
		var err error
		if op.Path == PathIIO {
			out, act, err = c.runIIOTop(p, op)
		} else {
			out, act, err = c.runEngineTop(p, op)
		}
		if err != nil {
			return err
		}
		rs.Actuals = append(rs.Actuals, act)
		all = append(all, out...)
	}
	if len(p.Ops) > 1 {
		all = mergeByDistance(all, q.K)
	} else if len(all) > q.K {
		all = all[:q.K]
	}
	rs.Results = all
	rs.Count = len(all)
	return nil
}

// runEngineTop executes a distance-first operator against the engine,
// incrementally: it pulls from the target's stream and filters residually
// until k results are accepted.
//
// SKQL's TOP is deterministic: ties at the k-th distance break by
// smallest object ID regardless of engine traversal order, so every
// physical path answers byte-identically. It therefore keeps fetching
// past k accepted results until the next candidate is strictly farther
// than the k-th, then sorts by (distance, ID).
func (c *Catalog) runEngineTop(p *Plan, op *Operator) ([]spatialkeyword.Result, OpActual, error) {
	q := p.Query
	var push []string
	if op.Path == PathIR2 {
		push = op.Conj
	}
	stop := c.opMeter()
	var act OpActual
	accept := c.acceptFn(p, op)
	out, err := c.streamTop(q, op, push, accept, &act)
	if err != nil {
		return nil, act, err
	}
	sortByDistance(out)
	if len(out) > op.K {
		out = out[:op.K]
	}
	act.Rows = len(out)
	act.BlocksRandom, act.BlocksSequential = stop()
	return out, act, nil
}

// streamTop is runEngineTop's pull loop. The stream holds the target's
// read locks until it is closed, so nothing in here calls back into the
// target.
func (c *Catalog) streamTop(q *Query, op *Operator, push []string, accept func(spatialkeyword.Object) bool, act *OpActual) ([]spatialkeyword.Result, error) {
	var it spatialkeyword.ResultStream
	var err error
	if q.Near != nil {
		it, err = c.t.Search(q.Near, push...)
	} else {
		it, err = c.t.SearchArea(q.Within.Lo[:], q.Within.Hi[:], push...)
	}
	if err != nil {
		return nil, err
	}
	defer it.Close()
	if q.Analyze {
		it.SetTrace(traceCollector(&act.Trace))
	}
	var out []spatialkeyword.Result
	for {
		if len(out) >= op.K {
			// out is in non-decreasing distance order, so the
			// last element is the current k-th distance; drain
			// any remaining ties before stopping.
			bound, ok := it.PeekBound()
			if !ok || bound > out[len(out)-1].Dist {
				break
			}
		}
		r, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		act.Candidates++
		if !accept(r.Object) {
			continue
		}
		out = append(out, r)
	}
	act.Work = it.Stats().Work
	return out, nil
}

// runIIOTop executes a distance-first operator on the Inverted Index
// Only path: intersect the sidecar posting lists, load the surviving
// objects, filter residually, sort by distance.
func (c *Catalog) runIIOTop(p *Plan, op *Operator) ([]spatialkeyword.Result, OpActual, error) {
	q := p.Query
	var act OpActual
	ix, err := c.index()
	if err != nil {
		return nil, act, err
	}
	stop := c.opMeter()
	ids, err := ix.Intersect(op.Conj)
	if err != nil {
		return nil, act, err
	}
	act.Candidates = len(ids)
	accept := c.acceptFn(p, op)

	var near geo.Point
	if q.Near != nil {
		near = geo.NewPoint(q.Near...)
	}
	var areaRect geo.Rect
	if q.Near == nil && q.Within != nil {
		// TOP ... WITHIN alone orders by distance-to-rect (TopKArea).
		areaRect = geo.NewRect(geo.NewPoint(q.Within.Lo[:]...), geo.NewPoint(q.Within.Hi[:]...))
	}

	var out []spatialkeyword.Result
	for _, id := range ids {
		if c.t.IsDeleted(id) {
			continue
		}
		o, err := c.t.Get(id)
		if err != nil {
			if errors.Is(err, spatialkeyword.ErrDeleted) || errors.Is(err, spatialkeyword.ErrUnknownID) {
				continue
			}
			return nil, act, err
		}
		if !accept(o) {
			continue
		}
		var dist float64
		pt := geo.NewPoint(o.Point...)
		if near != nil {
			if len(near) != len(pt) {
				return nil, act, fmt.Errorf("skql: %w: query point has %d dimensions, object %d has %d", spatialkeyword.ErrBadPoint, len(near), o.ID, len(pt))
			}
			dist = near.Dist(pt)
		} else {
			if len(areaRect.Lo) != len(pt) {
				return nil, act, fmt.Errorf("skql: %w: query rect has %d dimensions, object %d has %d", spatialkeyword.ErrBadPoint, len(areaRect.Lo), o.ID, len(pt))
			}
			dist = areaRect.MinDist(pt)
		}
		out = append(out, spatialkeyword.Result{Object: o, Dist: dist})
	}
	sortByDistance(out)
	if len(out) > op.K {
		out = out[:op.K]
	}
	act.Rows = len(out)
	act.BlocksRandom, act.BlocksSequential = stop()
	return out, act, nil
}

func sortByDistance(rs []spatialkeyword.Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Dist != rs[j].Dist {
			return rs[i].Dist < rs[j].Dist
		}
		return rs[i].Object.ID < rs[j].Object.ID
	})
}

// mergeByDistance unions branch outputs: dedupe by object ID, order by
// (distance, ID), keep k.
func mergeByDistance(rs []spatialkeyword.Result, k int) []spatialkeyword.Result {
	seen := make(map[uint64]bool, len(rs))
	out := rs[:0]
	for _, r := range rs {
		if seen[r.Object.ID] {
			continue
		}
		seen[r.Object.ID] = true
		out = append(out, r)
	}
	sortByDistance(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// --- RANKED k ---

func (c *Catalog) execRanked(p *Plan, rs *ResultSet) error {
	q := p.Query
	op := &p.Ops[0]
	stop := c.opMeter()
	var act OpActual

	// Unlike boolean operators, Conj here is the scoring term set —
	// results need not contain every term, so the residual is only the
	// boolean tree (when present), the rect, and the score threshold.
	var rect geo.Rect
	useRect := q.Within != nil
	if useRect {
		rect = geo.NewRect(geo.NewPoint(q.Within.Lo[:]...), geo.NewPoint(q.Within.Hi[:]...))
	}
	accept := func(o spatialkeyword.Object, score float64) bool {
		if useRect && !rect.ContainsPoint(geo.NewPoint(o.Point...)) {
			return false
		}
		if op.Residual != nil {
			set := termSet(p.an.Unique(o.Text))
			if !evalExpr(op.Residual, func(t string) bool { return set[t] }) {
				return false
			}
		}
		if q.Where != nil {
			if q.Where.Op == CmpGT && !(score > q.Where.Value) {
				return false
			}
			if q.Where.Op == CmpGE && !(score >= q.Where.Value) {
				return false
			}
		}
		return true
	}

	it, err := c.t.SearchRanked(q.Near, op.Conj...)
	if err != nil {
		return err
	}
	// The stream holds the target's read locks until closed.
	defer it.Close()
	// Like TOP, and like the backends' TopKRanked: ties at the k-th score
	// break by smallest object ID, so the rows tied with the k-th are drained
	// before the sort and cut.
	var out []spatialkeyword.RankedResult
	for {
		if len(out) >= op.K {
			bound, ok := it.PeekBound()
			if !ok || bound < out[len(out)-1].Score {
				break
			}
		}
		r, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		act.Candidates++
		if !accept(r.Object, r.Score) {
			continue
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Object.ID < out[j].Object.ID
	})
	if len(out) > op.K {
		out = out[:op.K]
	}
	act.Work = it.Stats().Work
	act.Rows = len(out)
	act.BlocksRandom, act.BlocksSequential = stop()
	rs.Actuals = append(rs.Actuals, act)
	rs.Ranked = out
	rs.Count = len(out)
	return nil
}

// --- ALL / COUNT ---

func (c *Catalog) execArea(p *Plan, rs *ResultSet) error {
	q := p.Query
	if len(p.Ops) == 0 { // contradictory MATCH: matches nothing
		return nil
	}
	op := &p.Ops[0]
	var out []spatialkeyword.Result
	var act OpActual
	var err error
	if op.Path == PathIIO {
		out, act, err = c.runIIOArea(p, op)
	} else {
		out, act, err = c.runEngineArea(p, op)
	}
	if err != nil {
		return err
	}
	rs.Actuals = append(rs.Actuals, act)
	rs.Count = len(out)
	if q.Proj == ProjAll {
		rs.Results = out
	}
	return nil
}

func (c *Catalog) runEngineArea(p *Plan, op *Operator) ([]spatialkeyword.Result, OpActual, error) {
	q := p.Query
	var push []string
	if op.Path == PathIR2 {
		push = op.Conj
	}
	stop := c.opMeter()
	var act OpActual
	accept := c.acceptFn(p, op)
	rres, err := c.t.WithinArea(q.Within.Lo[:], q.Within.Hi[:], push...)
	if err != nil {
		return nil, act, err
	}
	act.Candidates = len(rres)
	out := rres[:0]
	for _, r := range rres {
		if !accept(r.Object) {
			continue
		}
		out = append(out, r)
	}
	act.Rows = len(out)
	act.BlocksRandom, act.BlocksSequential = stop()
	return out, act, nil
}

func (c *Catalog) runIIOArea(p *Plan, op *Operator) ([]spatialkeyword.Result, OpActual, error) {
	var act OpActual
	ix, err := c.index()
	if err != nil {
		return nil, act, err
	}
	stop := c.opMeter()
	ids, err := ix.Intersect(op.Conj)
	if err != nil {
		return nil, act, err
	}
	act.Candidates = len(ids)
	accept := c.acceptFn(p, op)
	var out []spatialkeyword.Result
	for _, id := range ids {
		if c.t.IsDeleted(id) {
			continue
		}
		o, err := c.t.Get(id)
		if err != nil {
			if errors.Is(err, spatialkeyword.ErrDeleted) || errors.Is(err, spatialkeyword.ErrUnknownID) {
				continue
			}
			return nil, act, err
		}
		if !accept(o) {
			continue
		}
		// WithinArea contract: results carry Dist 0 in ID order (the
		// intersection is already ID-sorted).
		out = append(out, spatialkeyword.Result{Object: o})
	}
	act.Rows = len(out)
	act.BlocksRandom, act.BlocksSequential = stop()
	return out, act, nil
}
