// Package fence implements standing spatial-keyword queries ("geofences")
// with live event notification.
//
// A fence is a persistent query — a region or a point+radius, a set of
// conjunctive keywords, optionally a top-k cap — registered once and then
// evaluated against every mutation of the object set. When an Add or
// Delete changes a fence's result set, the registry emits typed events
// (enter, leave, update) to that fence's subscribers.
//
// Evaluation inverts the IR²-Tree signature idea (PAPER.md §4): instead of
// testing a query signature against stored node signatures, each mutating
// object's superimposed-coding signature is tested against the registered
// fence signatures. A mutation is matched in three narrowing stages:
//
//  1. spatial prune — an in-memory R-Tree over fence bounding rectangles
//     keeps only fences whose bounds contain the object's point;
//  2. signature prune — sigfile.Matches(objectSig, fenceSig) keeps only
//     fences whose keyword bits are all present in the object signature
//     (no false negatives, occasional false positives);
//  3. exact match — radius / threshold distance checks plus
//     textutil.ContainsTerms on the survivors.
//
// The registry is a pure function of the mutation stream: it never reads
// the engine or any storage device, so two registries holding the same
// fences and fed the same ordered mutations emit identical event streams.
// That is what makes post-WAL hooking safe — a replica applying shipped
// WAL records through an identical registry produces the leader's events.
package fence

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/textutil"
)

// Kind classifies a fence event.
type Kind string

const (
	// Enter: an object joined the fence's result set.
	Enter Kind = "enter"
	// Leave: an object left the fence's result set.
	Leave Kind = "leave"
	// Update: a surviving member of a top-k fence changed rank.
	Update Kind = "update"
)

// Event is one change to a fence's result set. Seq is per-fence,
// contiguous, and 1-based: a subscriber observing a gap in Seq knows
// events were dropped and can resync via EventsSince.
type Event struct {
	Fence  uint64  `json:"fence"`
	Seq    uint64  `json:"seq"`
	Kind   Kind    `json:"kind"`
	Object uint64  `json:"object"`
	Dist   float64 `json:"dist"`
	// Rank is the 1-based position in a top-k fence's result set
	// (0 for unlimited fences).
	Rank int `json:"rank,omitempty"`
}

// Mutation is one object-set change, as observed post-WAL on the engine
// mutation path. For deletes, Point and Text must be the stored object's
// values (the engine loads them while applying the delete).
type Mutation struct {
	Delete bool
	ID     uint64
	Point  geo.Point
	Text   string
}

// Query describes a standing query. Exactly one of Region or
// Center+Radius must be set.
type Query struct {
	// Region is a fixed axis-aligned region fence (zero for radius fences).
	Region geo.Rect
	// Center and Radius define a point+radius fence (Center nil for
	// region fences).
	Center geo.Point
	Radius float64
	// Keywords are matched conjunctively after analyzer normalization.
	// Empty means a pure geometric fence.
	Keywords []string
	// K caps the result set to the K objects nearest the fence focus
	// (the center, or the region's center). 0 = unlimited.
	K int
	// Threshold, when positive, excludes objects further than this from
	// the fence focus even when they are inside the region. It is the
	// "score threshold" knob for top-k fences.
	Threshold float64
}

func (q Query) radial() bool { return q.Center != nil }

// focus is the point distances are measured from.
func (q Query) focus() geo.Point {
	if q.radial() {
		return q.Center
	}
	return q.Region.Center()
}

// Info is a read-only snapshot of one registered fence.
type Info struct {
	ID          uint64
	Query       Query
	Members     int
	Seq         uint64
	Subscribers int
	Dropped     uint64
}

// EvalStats are cumulative evaluation counters, used by the churn
// benchmark to report pruning ratios. Pairs considered per mutation =
// number of registered fences; SpatialHits of those survive stage 1,
// SigHits survive stage 2, ExactHits match exactly.
type EvalStats struct {
	Mutations   uint64
	SpatialHits uint64
	SigHits     uint64
	ExactHits   uint64
	Events      uint64
	Dropped     uint64
}

// Options configure a Registry.
type Options struct {
	// Analyzer normalizes fence keywords and object text; it must be the
	// same analyzer the engine indexes with. Nil uses the default chain.
	Analyzer *textutil.Analyzer
	// Metrics, when non-nil, receives registry instrumentation.
	Metrics *Metrics
}

const (
	// dims is the dimensionality of fence and object points.
	dims = 2
	// historyLen is the per-fence ring of recent events kept for long-poll and
	// SSE resume.
	historyLen       = 256
	defaultSubBuffer = 64
)

// fenceSig is the superimposed-coding layout of fence and object signatures.
var fenceSig = sigfile.Config{LengthBytes: 16, BitsPerWord: sigfile.DefaultBitsPerWord}

// ErrNoFence is returned for operations on an unknown fence id.
var ErrNoFence = errors.New("fence: no such fence")

type member struct {
	id   uint64
	dist float64
}

type fenceState struct {
	id    uint64
	query Query // keywords normalized
	terms []string
	sig   sigfile.Signature
	bound geo.Rect
	focus geo.Point
	seq   uint64
	// matched holds every object currently matching the fence predicate,
	// sorted ascending by (dist, id). The result set is matched[:K] for
	// top-k fences, all of matched otherwise. Retaining the non-result
	// tail is what lets a delete promote the next-nearest object without
	// ever querying the engine.
	matched []member
	subs    map[*Subscription]struct{}
	hist    []Event // ring buffer, capacity historyLen
	histPos int     // next write position
	dropped uint64
}

// Registry holds the registered fences and evaluates mutations against
// them. All methods are safe for concurrent use. Apply serializes under a
// single write lock; evaluation is purely in-memory (no device I/O), so
// the critical section is short and lockio-clean by construction.
type Registry struct {
	mu     sync.RWMutex
	opts   Options
	nextID uint64
	fences map[uint64]*fenceState
	tree   *memTree
	stats  EvalStats
}

// NewRegistry returns an empty registry.
func NewRegistry(opts Options) *Registry {
	return &Registry{
		opts:   opts,
		nextID: 1,
		fences: make(map[uint64]*fenceState),
		tree:   newMemTree(),
	}
}

func (r *Registry) analyzer() *textutil.Analyzer { return r.opts.Analyzer }

// validate normalizes q and returns the fence bounding rectangle.
func (r *Registry) validate(q *Query) (geo.Rect, error) {
	switch {
	case q.radial() && !q.Region.IsZero():
		return geo.Rect{}, errors.New("fence: query sets both region and center")
	case q.radial():
		if len(q.Center) != dims {
			return geo.Rect{}, fmt.Errorf("fence: center has %d dims, registry wants %d", len(q.Center), dims)
		}
		if q.Radius <= 0 {
			return geo.Rect{}, errors.New("fence: radius must be positive")
		}
	case !q.Region.IsZero():
		if q.Region.Dim() != dims {
			return geo.Rect{}, fmt.Errorf("fence: region has %d dims, registry wants %d", q.Region.Dim(), dims)
		}
		for i := range q.Region.Lo {
			if q.Region.Lo[i] > q.Region.Hi[i] {
				return geo.Rect{}, fmt.Errorf("fence: inverted region on axis %d", i)
			}
		}
	default:
		return geo.Rect{}, errors.New("fence: query needs a region or a center+radius")
	}
	if q.K < 0 {
		return geo.Rect{}, errors.New("fence: negative K")
	}
	if q.Threshold < 0 {
		return geo.Rect{}, errors.New("fence: negative threshold")
	}
	if q.radial() {
		lo := make(geo.Point, len(q.Center))
		hi := make(geo.Point, len(q.Center))
		for i, c := range q.Center {
			lo[i] = c - q.Radius
			hi[i] = c + q.Radius
		}
		return geo.Rect{Lo: lo, Hi: hi}, nil
	}
	return q.Region.Clone(), nil
}

// Add registers a standing query and returns its fence id. The fence
// starts with an empty result set: it tracks changes going forward, it
// does not retro-match objects already in the engine. Register fences
// before replaying a stream when leader/replica equivalence matters.
func (r *Registry) Add(q Query) (uint64, error) {
	bound, err := r.validate(&q)
	if err != nil {
		return 0, err
	}
	terms := r.analyzer().Keywords(q.Keywords)
	q.Keywords = terms
	f := &fenceState{
		query: q,
		terms: terms,
		sig:   fenceSig.DocSignature(terms),
		bound: bound,
		focus: q.focus().Clone(),
		subs:  make(map[*Subscription]struct{}),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f.id = r.nextID
	r.nextID++
	r.fences[f.id] = f
	r.tree.insert(f.bound, f.id)
	if m := r.opts.Metrics; m != nil {
		m.Registered.Set(int64(len(r.fences)))
	}
	return f.id, nil
}

// Remove drops a fence; all of its subscriptions are closed.
func (r *Registry) Remove(id uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fences[id]
	if !ok {
		return ErrNoFence
	}
	delete(r.fences, id)
	r.tree.delete(f.bound, f.id)
	for sub := range f.subs {
		sub.closeLocked()
	}
	if m := r.opts.Metrics; m != nil {
		m.Registered.Set(int64(len(r.fences)))
	}
	return nil
}

// Get returns a snapshot of one fence.
func (r *Registry) Get(id uint64) (Info, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.fences[id]
	if !ok {
		return Info{}, false
	}
	return r.infoLocked(f), true
}

// List returns snapshots of every fence, ordered by id.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, 0, len(r.fences))
	for _, f := range r.fences {
		out = append(out, r.infoLocked(f))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (r *Registry) infoLocked(f *fenceState) Info {
	return Info{
		ID:          f.id,
		Query:       f.query,
		Members:     len(f.matched),
		Seq:         f.seq,
		Subscribers: len(f.subs),
		Dropped:     f.dropped,
	}
}

// Len returns the number of registered fences.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.fences)
}

// Stats returns a snapshot of the cumulative evaluation counters.
func (r *Registry) Stats() EvalStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.stats
}

// Apply evaluates one mutation against every registered fence and
// delivers the resulting events. It returns the emitted events ordered by
// (fence id, seq) — the same order every registry fed the same stream
// produces. Mutations whose dimensionality does not match the registry
// are ignored.
func (r *Registry) Apply(m Mutation) []Event {
	if len(m.Point) != dims {
		return nil
	}
	var start time.Time
	if r.opts.Metrics != nil {
		start = time.Now()
	}
	objSig := fenceSig.DocSignature(r.analyzer().Unique(m.Text))

	r.mu.Lock()
	r.stats.Mutations++
	var cands []uint64
	r.tree.searchPoint(m.Point, func(id uint64) { cands = append(cands, id) })
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })

	var events []Event
	for _, id := range cands {
		f := r.fences[id]
		r.stats.SpatialHits++
		if !sigfile.Matches(objSig, f.sig) {
			continue
		}
		r.stats.SigHits++
		events = r.evalLocked(f, m, events)
	}
	r.stats.Events += uint64(len(events))
	metrics := r.opts.Metrics
	r.mu.Unlock()

	if metrics != nil {
		metrics.EvalSeconds.Observe(time.Since(start).Seconds())
		for _, ev := range events {
			if c := metrics.events(ev.Kind); c != nil {
				c.Inc()
			}
		}
	}
	return events
}

// evalLocked runs the exact-match stage for one fence and appends any
// produced events. Caller holds r.mu.
func (r *Registry) evalLocked(f *fenceState, m Mutation, events []Event) []Event {
	dist := m.Point.Dist(f.focus)
	if m.Delete {
		i, ok := findMember(f.matched, member{id: m.ID, dist: dist})
		if !ok {
			return events
		}
		r.stats.ExactHits++
		old := f.window()
		f.matched = append(f.matched[:i], f.matched[i+1:]...)
		return r.emitLocked(f, diffWindows(old, f.window(), f.query.K > 0), events)
	}
	if !r.exactMatch(f, m, dist) {
		return events
	}
	r.stats.ExactHits++
	old := f.window()
	i := sort.Search(len(f.matched), func(i int) bool {
		e := f.matched[i]
		return e.dist > dist || (e.dist == dist && e.id >= m.ID)
	})
	f.matched = append(f.matched, member{})
	copy(f.matched[i+1:], f.matched[i:])
	f.matched[i] = member{id: m.ID, dist: dist}
	return r.emitLocked(f, diffWindows(old, f.window(), f.query.K > 0), events)
}

// exactMatch is stage 3: the precise geometric and keyword predicate.
func (r *Registry) exactMatch(f *fenceState, m Mutation, dist float64) bool {
	if f.query.radial() {
		if dist > f.query.Radius {
			return false
		}
	} else if !f.query.Region.ContainsPoint(m.Point) {
		return false
	}
	if f.query.Threshold > 0 && dist > f.query.Threshold {
		return false
	}
	return r.analyzer().ContainsTerms(m.Text, f.terms)
}

// window returns a copy of the fence's current result set.
func (f *fenceState) window() []member {
	n := len(f.matched)
	if f.query.K > 0 && n > f.query.K {
		n = f.query.K
	}
	w := make([]member, n)
	copy(w, f.matched[:n])
	return w
}

// findMember locates m in the sorted matched slice.
func findMember(matched []member, m member) (int, bool) {
	i := sort.Search(len(matched), func(i int) bool {
		e := matched[i]
		return e.dist > m.dist || (e.dist == m.dist && e.id >= m.id)
	})
	if i < len(matched) && matched[i].id == m.id && matched[i].dist == m.dist {
		return i, true
	}
	return 0, false
}

// windowDiff is the canonical event set between two result-set windows:
// leaves ordered by object id, then enters ordered by rank (or id), then
// rank updates ordered by new rank. The oracle test reimplements this
// contract independently.
func diffWindows(old, now []member, topk bool) []Event {
	oldIdx := make(map[uint64]int, len(old))
	for i, m := range old {
		oldIdx[m.id] = i
	}
	nowIdx := make(map[uint64]int, len(now))
	for i, m := range now {
		nowIdx[m.id] = i
	}
	var evs []Event
	for _, m := range old {
		if _, ok := nowIdx[m.id]; !ok {
			evs = append(evs, Event{Kind: Leave, Object: m.id, Dist: m.dist})
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Object < evs[j].Object })
	for i, m := range now {
		if _, ok := oldIdx[m.id]; !ok {
			ev := Event{Kind: Enter, Object: m.id, Dist: m.dist}
			if topk {
				ev.Rank = i + 1
			}
			evs = append(evs, ev)
		}
	}
	if topk {
		for i, m := range now {
			if j, ok := oldIdx[m.id]; ok && j != i {
				evs = append(evs, Event{Kind: Update, Object: m.id, Dist: m.dist, Rank: i + 1})
			}
		}
	}
	return evs
}

// emitLocked stamps events with the fence id and sequence, records them
// in the history ring, and fans them out to subscribers with a
// non-blocking send (full buffers drop, counted per subscription and per
// fence). Caller holds r.mu.
func (r *Registry) emitLocked(f *fenceState, evs []Event, out []Event) []Event {
	for _, ev := range evs {
		f.seq++
		ev.Fence = f.id
		ev.Seq = f.seq
		if len(f.hist) < historyLen {
			f.hist = append(f.hist, ev)
		} else {
			f.hist[f.histPos] = ev
			f.histPos = (f.histPos + 1) % historyLen
		}
		for sub := range f.subs {
			select {
			case sub.ch <- ev:
			default:
				sub.dropped++
				f.dropped++
				r.stats.Dropped++
				if m := r.opts.Metrics; m != nil {
					m.Dropped.Inc()
				}
			}
		}
		out = append(out, ev)
	}
	return out
}

// EventsSince returns up to max retained events of the fence with
// Seq > since, in order. lagged reports that events between since and the
// first returned one have already been evicted from the history ring —
// the caller's view has a gap it cannot close by polling.
func (r *Registry) EventsSince(id, since uint64, max int) (evs []Event, lagged bool, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.fences[id]
	if !ok {
		return nil, false, ErrNoFence
	}
	if max <= 0 || max > len(f.hist) {
		max = len(f.hist)
	}
	// Oldest retained event sits at histPos once the ring has wrapped.
	n := len(f.hist)
	var first uint64
	if n > 0 {
		if n < historyLen {
			first = f.hist[0].Seq
		} else {
			first = f.hist[f.histPos].Seq
		}
	} else {
		first = f.seq + 1
	}
	if since+1 < first {
		lagged = true
	}
	for i := 0; i < n; i++ {
		var ev Event
		if n < historyLen {
			ev = f.hist[i]
		} else {
			ev = f.hist[(f.histPos+i)%n]
		}
		if ev.Seq > since {
			evs = append(evs, ev)
			if len(evs) >= max {
				break
			}
		}
	}
	return evs, lagged, nil
}
