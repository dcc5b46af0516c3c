package rtree

import (
	"fmt"
	"math"
	"math/bits"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
)

// NodeScorer assigns priorities to the entries of an expanded node during
// best-first search and decides which of them to keep. The iterator calls
// ScoreNode once per expanded node, after the signature test "if s matches
// w" of Figure 8 (see Seek): bit i of mask (bit i%64 of mask[i/64]) is set
// for every entry i of pn that passed it, and no bit at or above
// pn.NumEntries() is. For every entry it keeps the scorer writes the
// entry's priority to scores[i]; it clears the bit of every entry it drops
// and never sets one. Dropping is for scorers with a test of their own, such
// as the general ranked query's "Score > 0" or the range query's
// rectangle. scores holds one slot per entry of a full node; a slot whose
// bit ends up clear is ignored.
//
// Lower scores are dequeued first, so a scorer implementing the paper's
// general ranking (higher f is better) writes negated scores.
//
// Scorers must not retain pn, mask or scores past the call: the mask and
// the scores are the iterator's scratch for the next node, and pn's
// accessors alias a pinned node image.
type NodeScorer interface {
	ScoreNode(pn *PackedNode, mask []uint64, scores []float64)
}

// distanceScorer is the scorer of the incremental nearest-neighbor
// algorithm (Figure 3): the priority of every entry is the minimum distance
// from p to its MBR, and nothing is dropped. Each MBR is decoded into the
// corner points lo and hi.
type distanceScorer struct{ p, lo, hi geo.Point }

// ScoreNode implements NodeScorer.
//
//skvet:hotpath
func (s *distanceScorer) ScoreNode(pn *PackedNode, mask []uint64, scores []float64) {
	for w, m := range mask {
		for ; m != 0; m &= m - 1 {
			i := w*64 + bits.TrailingZeros64(m)
			scores[i] = pn.EntryRectInto(i, s.lo, s.hi).MinDist(s.p)
		}
	}
}

// queueItem is one element of the search priority queue U: either an object
// reference or a node pointer awaiting expansion.
type queueItem struct {
	isObject bool
	ref      uint64          // object reference, when isObject
	node     storage.BlockID // node pointer, when !isObject
	score    float64
	seq      uint64 // insertion order; breaks score ties deterministically
}

// itemHeap is a binary min-heap of queue items. It is managed by the push
// and pop methods below rather than container/heap: boxing a queueItem into
// an interface{} on every enqueue is exactly the kind of steady-state
// allocation the hot path exists to remove, and Less is a strict total
// order (seq breaks every tie), so the pop sequence is identical to
// container/heap's.
type itemHeap []queueItem

func (h itemHeap) less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	// Objects before nodes at equal score: an object's score is exact, so
	// it can be emitted without expanding more nodes.
	if h[i].isObject != h[j].isObject {
		return h[i].isObject
	}
	return h[i].seq < h[j].seq
}

func (h *itemHeap) push(x queueItem) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *itemHeap) pop() queueItem {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && s.less(r, l) {
			c = r
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

// TraceKind classifies a traversal trace event.
type TraceKind int

// The trace event kinds, mirroring the steps of the paper's worked
// Examples 1 and 3 ("Dequeue N₁; Enqueue N₂; ...").
const (
	// TraceExpand: a node was dequeued and loaded for expansion.
	TraceExpand TraceKind = iota
	// TraceEnqueueNode: a child node entry passed the scorer and entered
	// the queue.
	TraceEnqueueNode
	// TraceEnqueueObject: an object entry passed the scorer and entered
	// the queue.
	TraceEnqueueObject
	// TracePrune: an entry's signature did not cover the query's, or the
	// scorer dropped it — the subtree or object is never visited.
	TracePrune
	// TraceEmit: an object was dequeued and returned as the next result
	// candidate.
	TraceEmit
)

// String names the kind.
func (k TraceKind) String() string {
	switch k {
	case TraceExpand:
		return "expand"
	case TraceEnqueueNode:
		return "enqueue-node"
	case TraceEnqueueObject:
		return "enqueue-object"
	case TracePrune:
		return "prune"
	case TraceEmit:
		return "emit"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent is one step of a best-first traversal, as delivered to the
// hook installed with Iter.SetTrace.
type TraceEvent struct {
	Kind TraceKind
	// Node is the block of the node involved (the expanded node for
	// TraceExpand; the parent node for entry events).
	Node storage.BlockID
	// Child is the entry's target: a child node block or an object
	// reference, depending on Kind.
	Child uint64
	// Level is the level of the node the entry was read from (the expanded
	// node's level for TraceExpand).
	Level int
	// Score is the queue priority involved (0 for prunes).
	Score float64
}

// String renders the event as one line of a distance-first traversal
// narration — the form SKQL's EXPLAIN ANALYZE prints. Entry events are
// indented under the expansion that produced them.
func (ev TraceEvent) String() string {
	switch ev.Kind {
	case TraceExpand:
		return fmt.Sprintf("expand node %d (level %d, bound %.2f)", ev.Node, ev.Level, ev.Score)
	case TraceEnqueueNode:
		return fmt.Sprintf("  enqueue subtree %d (dist >= %.2f)", ev.Child, ev.Score)
	case TraceEnqueueObject:
		return fmt.Sprintf("  enqueue object %d (dist %.2f)", ev.Child, ev.Score)
	case TracePrune:
		what := "subtree"
		if ev.Level == 0 {
			what = "object"
		}
		return fmt.Sprintf("  prune %s %d: signature mismatch", what, ev.Child)
	case TraceEmit:
		return fmt.Sprintf("emit object %d (dist %.2f)", ev.Child, ev.Score)
	default:
		return ev.Kind.String()
	}
}

// Iter is an incremental best-first traversal of the tree: a priority queue
// initialized with the root, where dequeuing a node expands (and pays the
// I/O for) it and dequeuing an object emits it (Figure 3 / Figure 8).
// Objects come out in non-decreasing score order provided the scorer is a
// lower bound: score(node entry) <= score of anything inside it.
//
// An Iter must not be advanced concurrently with tree mutations.
//
// Iterators draw their priority queue and rectangle scratch from a per-tree
// pool; call Close when done with an iterator to return them. Skipping
// Close is safe (the scratch is garbage collected) but forfeits the reuse.
type Iter struct {
	t     *Tree
	ns    NodeScorer
	dist  distanceScorer // NearestNeighbors' scorer, held here so it costs no allocation
	sig   func(level int) *sigfile.Sig64
	queue itemHeap
	seq   uint64
	stats TraversalStats
	trace func(TraceEvent)
	scr   *iterScratch
}

// iterScratch is the pooled per-traversal state: the queue's backing array,
// the survivor mask (Tree.MaskWords words) and the scores (one per entry of
// a full node) of the node being expanded, and the corner points the
// distance scorer decodes MBRs into. One mask and one score slice serve
// every node, because an expansion is finished before the next begins and
// scorers do not retain them (see NodeScorer).
type iterScratch struct {
	queue  []queueItem
	mask   []uint64
	scores []float64
	lo, hi geo.Point
}

// TraversalStats are the work counters of one traversal — the per-event
// totals a TraceEvent hook would accumulate, kept as plain increments on
// the iterator so observability costs nothing when no hook is installed.
type TraversalStats struct {
	// NodesLoaded is the number of nodes expanded (the "node accesses"
	// metric of the paper's evaluation).
	NodesLoaded int
	// EntriesPruned is the number of entries dropped: signature
	// mismatches plus the entries the scorer dropped — subtrees never
	// visited.
	EntriesPruned int
	// NodesEnqueued and ObjectsEnqueued count entries that passed the
	// scorer and entered the queue (pushed objects count as objects).
	NodesEnqueued   int
	ObjectsEnqueued int
}

// SetTrace installs a hook receiving every traversal step — the library's
// equivalent of the paper's Example 1/3 walk-throughs. Install before the
// first Next call; a nil hook disables tracing.
func (it *Iter) SetTrace(fn func(TraceEvent)) { it.trace = fn }

// Seek starts a best-first traversal with the given node scorer. sig, when
// not nil, is the query's signature per tree level — the signature test "if
// s matches w" of Figure 8: an expanded node looks its level's signature up
// once and tests all of its entries with it (PackedNode.MatchMask, so a
// length mismatch keeps every entry), and only the survivors reach the
// scorer, which is called once for the node (see NodeScorer). A nil sig
// prunes nothing.
//
// The root enters the queue with score -Inf: it is never pruned (the query
// must consider the whole tree before any of it is expanded), and -Inf is
// the one priority that is a sound bound for every scorer — PeekScore must
// never claim a tighter bound than the scorer itself would assign, and the
// root has not been scored yet. (Seeding with 0 would be wrong for scorers
// with negative priorities, such as the general ranked query's negated f
// scores: a peek before the first Next would report bound 0 and let a top-k
// merge discard the whole traversal.)
func (t *Tree) Seek(ns NodeScorer, sig func(level int) *sigfile.Sig64) *Iter {
	it := new(Iter)
	t.SeekInto(it, ns, sig)
	return it
}

// SeekInto is Seek into an iterator the caller holds — a new one, or one it
// has closed — so a traversal embedded in a query's own state costs no
// allocation of its own.
func (t *Tree) SeekInto(it *Iter, ns NodeScorer, sig func(level int) *sigfile.Sig64) {
	*it = Iter{t: t, ns: ns, sig: sig}
	t.mu.RLock()
	root := t.root
	t.mu.RUnlock()
	scr := t.iterPool.Get().(*iterScratch)
	it.scr = scr
	it.queue = scr.queue[:0]
	if root != storage.NilBlock {
		it.queue = append(it.queue, queueItem{node: root, score: math.Inf(-1)})
		it.seq = 1
	}
}

// Close returns the iterator's pooled scratch to the tree. Safe to call
// more than once; the iterator must not be advanced afterwards.
func (it *Iter) Close() {
	if it.scr == nil {
		return
	}
	it.scr.queue = it.queue[:0]
	it.t.iterPool.Put(it.scr)
	it.scr = nil
	it.queue = nil
}

// NearestNeighbors starts the incremental nearest-neighbor traversal from
// point p, pruning entries whose payload misses the query signature sig
// (see Seek). A nil sig is the classic [HS99] algorithm; a non-nil one is
// the distance-first IR² traversal of Figure 8.
func (t *Tree) NearestNeighbors(p geo.Point, sig func(level int) *sigfile.Sig64) *Iter {
	it := t.Seek(nil, sig)
	it.dist = distanceScorer{p: p, lo: it.scr.lo, hi: it.scr.hi}
	it.ns = &it.dist
	return it
}

// Next returns the next object in score order. ok is false when the
// traversal is exhausted.
//
//skvet:hotpath
func (it *Iter) Next() (ref uint64, score float64, ok bool, err error) {
	for len(it.queue) > 0 {
		item := it.queue.pop()
		if item.isObject {
			it.emit(item)
			return item.ref, item.score, true, nil
		}
		if err := it.expandPacked(item.node, item.score); err != nil {
			return 0, 0, false, err
		}
	}
	return 0, 0, false, nil
}

// expandPacked is Next's node-expansion step: the node comes from the
// decoded-node cache (or, without one, is pinned for this visit). The
// level's query signature is looked up once per node and tested against all
// of its entries at once (PackedNode.MatchMask); the scorer then scores the
// survivors and drops what its own test rejects, in one call for the node.
// What is left is pushed in entry order, so sequence numbers and ties are
// those of a per-entry test. Without a trace hook the walk visits the
// survivors only and counts the rest as pruned in one step; with one it
// walks every entry, so each prune event — the signature's or the scorer's
// — keeps its place.
//
//skvet:hotpath
func (it *Iter) expandPacked(id storage.BlockID, score float64) error {
	pn, err := it.t.LoadPacked(id)
	if err != nil {
		return fmt.Errorf("rtree: search: %w", err)
	}
	it.stats.NodesLoaded++
	var sig *sigfile.Sig64
	if it.sig != nil {
		sig = it.sig(pn.level)
	}
	mask := pn.MatchMask(sig, it.scr.mask)
	scores := it.scr.scores
	it.ns.ScoreNode(pn, mask, scores)
	if it.trace != nil {
		it.trace(TraceEvent{Kind: TraceExpand, Node: pn.id, Level: pn.level, Score: score})
		for i := 0; i < pn.count; i++ {
			if mask[i/64]&(1<<(i%64)) == 0 {
				it.stats.EntriesPruned++
				it.trace(TraceEvent{Kind: TracePrune, Node: pn.id, Child: pn.EntryPtr(i), Level: pn.level})
				continue
			}
			it.enqueueEntry(pn, i, scores[i])
		}
		return nil
	}
	survivors := 0
	for w, m := range mask {
		for ; m != 0; m &= m - 1 {
			i := w*64 + bits.TrailingZeros64(m)
			it.enqueueEntry(pn, i, scores[i])
			survivors++
		}
	}
	it.stats.EntriesPruned += pn.count - survivors
	return nil
}

// enqueueEntry pushes node pn's entry i, which the scorer kept with the
// given score, on the queue.
//
//skvet:hotpath
func (it *Iter) enqueueEntry(pn *PackedNode, i int, score float64) {
	isObject := pn.level == 0
	ptr := pn.EntryPtr(i)
	qi := queueItem{isObject: isObject, score: score, seq: it.seq}
	it.seq++
	if isObject {
		it.stats.ObjectsEnqueued++
		qi.ref = ptr
		if it.trace != nil {
			it.trace(TraceEvent{Kind: TraceEnqueueObject, Node: pn.id, Child: ptr, Level: pn.level, Score: score})
		}
	} else {
		it.stats.NodesEnqueued++
		qi.node = storage.BlockID(ptr)
		if it.trace != nil {
			it.trace(TraceEvent{Kind: TraceEnqueueNode, Node: pn.id, Child: ptr, Level: pn.level, Score: score})
		}
	}
	it.queue.push(qi)
}

// Push enqueues an object with a caller-computed score. The general IR²
// algorithm uses it to push a loaded candidate back with its exact f score
// when the queue may still contain something better ("U.Enqueue(T, Score)
// — to be considered later"), and a query pushes the rows its tree does not
// hold yet at the scores their leaf entries would get (core's PushRun).
func (it *Iter) Push(ref uint64, score float64) {
	it.queue.push(queueItem{isObject: true, ref: ref, score: score, seq: it.seq})
	it.seq++
	it.stats.ObjectsEnqueued++
}

// PeekScore returns the score of the best queued element, or ok = false for
// an empty queue. The general IR² algorithm compares a candidate's exact
// score against it ("if Score >= Upper(U.top())").
//
//skvet:hotpath
func (it *Iter) PeekScore() (float64, bool) {
	if len(it.queue) == 0 {
		return 0, false
	}
	return it.queue[0].score, true
}

// PeekObject returns the reference and score of the best queued element
// when it is an object; ok is false when it is a node or the queue is
// empty. A query that can judge the object without reading it (core's row
// table) looks at the head this way, and drops it with DropObject.
//
//skvet:hotpath
func (it *Iter) PeekObject() (ref uint64, score float64, ok bool) {
	if len(it.queue) == 0 || !it.queue[0].isObject {
		return 0, 0, false
	}
	return it.queue[0].ref, it.queue[0].score, true
}

// ExpandHead expands the node that heads the queue, as Next would on its
// way to the next object; it does nothing when an object heads the queue or
// it is empty. A query that must know its next result's key exactly, but
// not read the result yet, expands its way there with it.
func (it *Iter) ExpandHead() error {
	if len(it.queue) == 0 || it.queue[0].isObject {
		return nil
	}
	item := it.queue.pop()
	return it.expandPacked(item.node, item.score)
}

// DropObject removes the best queued element, an object PeekObject
// returned, as Next would have returned it.
func (it *Iter) DropObject() { it.emit(it.queue.pop()) }

// emit traces an object leaving the queue.
//
//skvet:hotpath
func (it *Iter) emit(item queueItem) {
	if it.trace != nil {
		it.trace(TraceEvent{Kind: TraceEmit, Child: item.ref, Score: item.score})
	}
}

// TraversalStats returns all of the traversal's work counters so far.
func (it *Iter) TraversalStats() TraversalStats { return it.stats }
