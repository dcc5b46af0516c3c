package skql

import (
	"cmp"
	"errors"
	"slices"
	"sync"

	"spatialkeyword"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/obs"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
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
	// counters on the rtree and ir2 paths (on IIO only ObjectsLoaded, the
	// rows it read), and the block accesses of every device the operator
	// touched (the engine's plus the sidecar index).
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
	// RunPlan may execute a plan built before new adds were queued; do a
	// read's storage work outside the operator meters so it never inflates
	// an operator's actual block counts.
	if err := c.t.PrepareRead(); err != nil {
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
	stop := c.t.MeterIO()
	c.mu.Lock()
	var inv storage.Stats
	dev := c.invDev
	if dev != nil {
		inv = dev.Stats()
	}
	c.mu.Unlock()
	return func() (r, s uint64) {
		r, s = stop()
		if dev != nil {
			st := dev.Stats().Sub(inv)
			r, s = r+st.Random(), s+st.Sequential()
		}
		return r, s
	}
}

// termFilter returns pred as a test of a row's text: one TermFreqsInto
// counts terms in the row (allocation-free on the plain pipeline), and
// pred sees a term as present when its count is positive. A term pred
// asks about that terms does not hold reads as present: it is one the
// caller has proven. The counts are reused, so only one goroutine may
// call it.
func termFilter(an *textutil.Analyzer, terms []string, pred func(has func(string) bool) bool) func(text string) bool {
	counts := make([]int, len(terms))
	has := func(t string) bool {
		i := slices.Index(terms, t)
		return i < 0 || counts[i] > 0
	}
	return func(text string) bool {
		an.TermFreqsInto(counts, text, terms)
		return pred(has)
	}
}

// acceptAll is the residual predicate of an operator with nothing left to
// test.
func acceptAll(spatialkeyword.Object) bool { return true }

// acceptFn builds the residual predicate for a boolean operator: the
// term filters (Conj, Neg, Residual) plus the hard rectangle filter
// when the projection confines results to the WITHIN rect (ALL/COUNT,
// or TOP combining NEAR with WITHIN; TOP with WITHIN alone orders by
// distance-to-rect and keeps outside objects, as SearchArea does). An
// IIO operator's Conj is proven by the posting-list intersection (the
// sidecar indexes each row's terms through the analyzer the filter counts
// with), so its filter counts only the other Neg and Residual terms, and
// an operator with no such term and no rect accepts every row.
func (c *Catalog) acceptFn(p *Plan, op *Operator) func(o spatialkeyword.Object) bool {
	q := p.Query
	needRect := q.Within != nil && (q.Near != nil || q.Proj == ProjAll || q.Proj == ProjCount)
	terms := appendTerms(slices.Concat(op.Conj, op.Neg), op.Residual, false)
	if op.Path == PathIIO {
		terms = slices.DeleteFunc(terms, func(t string) bool { return slices.Contains(op.Conj, t) })
	}
	if len(terms) == 0 && !needRect {
		return acceptAll
	}
	var rect geo.Rect
	if needRect {
		rect = geo.NewRect(geo.NewPoint(q.Within.Lo[:]...), geo.NewPoint(q.Within.Hi[:]...))
	}
	var matches func(text string) bool
	if len(terms) > 0 {
		matches = termFilter(p.an, terms, op.requires)
	}
	return func(o spatialkeyword.Object) bool {
		if needRect && !rect.ContainsPoint(geo.NewPoint(o.Point...)) {
			return false
		}
		return matches == nil || matches(o.Text)
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
			out, act, err = c.loadIIO(p, op)
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
// incrementally: spatialkeyword.FirstK pulls the target's stream, filtering
// residually, until k results are accepted and the ties on the k-th distance
// are drained. SKQL's TOP is deterministic: ties at the k-th distance break by
// smallest object ID regardless of engine traversal order, so every physical
// path answers byte-identically. The stream holds the target's read locks
// until it is closed, so nothing in between calls back into the target.
func (c *Catalog) runEngineTop(p *Plan, op *Operator) ([]spatialkeyword.Result, OpActual, error) {
	q := p.Query
	var push []string
	if op.Path == PathIR2 {
		push = op.Conj
	}
	stop := c.opMeter()
	var act OpActual
	var it spatialkeyword.ResultStream
	var err error
	if q.Near != nil {
		it, err = c.t.Search(q.Near, push...)
	} else {
		it, err = c.t.SearchArea(q.Within.Lo[:], q.Within.Hi[:], push...)
	}
	if err != nil {
		return nil, act, err
	}
	defer it.Close()
	if q.Analyze {
		it.SetTrace(traceCollector(&act.Trace))
	}
	accept := c.acceptFn(p, op)
	out, err := spatialkeyword.FirstK(nil, it, op.K, func(r spatialkeyword.Result) bool {
		act.Candidates++
		return accept(r.Object)
	})
	if err != nil {
		return nil, act, err
	}
	act.Work = it.Stats().Work
	act.Rows = len(out)
	act.BlocksRandom, act.BlocksSequential = stop()
	return out, act, nil
}

// topDist returns a TOP operator's ordering key for a point: its distance
// to the NEAR point, or to the WITHIN rect when there is no NEAR (what
// SearchArea orders by).
func topDist(q *Query) func(pt geo.Point) float64 {
	if q.Near != nil {
		return geo.NewPoint(q.Near...).Dist
	}
	return geo.NewRect(geo.NewPoint(q.Within.Lo[:]...), geo.NewPoint(q.Within.Hi[:]...)).MinDist
}

// iioCand is an IIO operator's candidate: its ID and its ordering key.
type iioCand struct {
	id   uint64
	dist float64
}

// before reports whether a comes first in a TOP's (distance, ID) order.
func (a iioCand) before(b iioCand) bool {
	if r := cmp.Compare(a.dist, b.dist); r != 0 {
		return r < 0
	}
	return a.id < b.id
}

// candHeap is a binary min-heap of candidates in (distance, ID) order: a
// TOP pays O(n) to build it and O(log n) per candidate it takes, instead
// of sorting every candidate to read a prefix.
type candHeap []iioCand

// init orders h into a heap.
func (h candHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts h[i] down to its place.
func (h candHeap) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pop removes and returns the first candidate; h must not be empty.
func (h *candHeap) pop() iioCand {
	old := *h
	top, n := old[0], len(old)-1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
	return top
}

// iioScratch is the memory one IIO operator works in: its candidates' IDs
// and their heap. iioPool keeps it across statements.
type iioScratch struct {
	ids   []uint64
	cands []iioCand
}

var iioPool = sync.Pool{New: func() any { return new(iioScratch) }}

// loadIIO executes an operator on the Inverted Index Only path, reading
// only the rows that can make its answer. It intersects the sidecar posting
// lists of the operator's conjunction and takes every candidate's point from
// the target's row table in one Rows call, which passes over the deleted
// ones; when the projection is confined to the WITHIN rect, the ones outside
// it are dropped too. The operator then takes candidates from a heap in
// (distance, ID) order and reads rows: a TOP until op.K pass the residual
// filter, which are its answer; ALL and COUNT every survivor, in ID order
// (WithinArea's contract: Dist 0).
func (c *Catalog) loadIIO(p *Plan, op *Operator) ([]spatialkeyword.Result, OpActual, error) {
	q := p.Query
	var act OpActual
	ix, err := c.index()
	if err != nil {
		return nil, act, err
	}
	stop := c.opMeter()
	s := iioPool.Get().(*iioScratch)
	defer iioPool.Put(s)
	if s.ids, err = ix.AppendIntersect(s.ids[:0], op.Conj); err != nil {
		return nil, act, err
	}
	act.Candidates = len(s.ids)
	accept := c.acceptFn(p, op)
	read := func(id uint64) (spatialkeyword.Object, bool, error) {
		o, err := c.t.Get(id)
		if err != nil {
			if errors.Is(err, spatialkeyword.ErrDeleted) || errors.Is(err, spatialkeyword.ErrUnknownID) {
				err = nil
			}
			return o, false, err
		}
		act.ObjectsLoaded++
		return o, accept(o), nil
	}
	var rect geo.Rect
	confined := q.Within != nil && (q.Near != nil || q.Proj != ProjTop)
	if confined {
		rect = geo.NewRect(geo.NewPoint(q.Within.Lo[:]...), geo.NewPoint(q.Within.Hi[:]...))
	}
	// A TOP orders its candidates by distance; ALL and COUNT, all at
	// distance 0, by ID alone, and read every one.
	var dist func(geo.Point) float64
	k := op.K
	if q.Proj == ProjTop {
		dist = topDist(q)
	}
	cands := s.cands[:0]
	err = c.t.Rows(s.ids, nil, func(i int, pt []float64, _ []string) {
		if confined && !rect.ContainsPoint(pt) {
			return
		}
		cd := iioCand{id: s.ids[i]}
		if dist != nil {
			cd.dist = dist(pt)
		}
		cands = append(cands, cd)
	})
	s.cands = cands[:0]
	if err != nil {
		return nil, act, err
	}
	if dist == nil {
		k = len(cands)
	}
	h := candHeap(cands)
	h.init()
	out := make([]spatialkeyword.Result, 0, min(k, len(h)))
	for len(out) < k && len(h) > 0 {
		cd := h.pop()
		o, ok, err := read(cd.id)
		if err != nil {
			return nil, act, err
		}
		if ok {
			out = append(out, spatialkeyword.Result{Object: o, Dist: cd.dist})
		}
	}
	act.Rows = len(out)
	act.BlocksRandom, act.BlocksSequential = stop()
	return out, act, nil
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
	slices.SortFunc(out, func(a, b spatialkeyword.Result) int {
		if r := cmp.Compare(a.Dist, b.Dist); r != 0 {
			return r
		}
		return cmp.Compare(a.Object.ID, b.Object.ID)
	})
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
	var residual func(text string) bool
	if op.Residual != nil {
		residual = termFilter(p.an, appendTerms(nil, op.Residual, false), func(has func(string) bool) bool {
			return evalExpr(op.Residual, has)
		})
	}
	keep := func(r spatialkeyword.RankedResult) bool {
		act.Candidates++
		if useRect && !rect.ContainsPoint(geo.NewPoint(r.Object.Point...)) {
			return false
		}
		if residual != nil && !residual(r.Object.Text) {
			return false
		}
		if q.Where != nil {
			if q.Where.Op == CmpGT && !(r.Score > q.Where.Value) {
				return false
			}
			if q.Where.Op == CmpGE && !(r.Score >= q.Where.Value) {
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
	// break by smallest object ID.
	out, err := spatialkeyword.FirstK(nil, it, op.K, keep)
	if err != nil {
		return err
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
		out, act, err = c.loadIIO(p, op)
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
	rres, qs, err := c.t.WithinArea(q.Within.Lo[:], q.Within.Hi[:], push...)
	if err != nil {
		return nil, act, err
	}
	act.Work = qs.Work
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
