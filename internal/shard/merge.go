package shard

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/obs"
)

// The fan-out/merge machinery: one merge for every sharded top-k. A sharded
// top-k is the paper's best-first search one level up — each shard is an
// incremental stream (Search, SearchArea, SearchRankedWith) with a bound on
// everything it can still produce, and the merge keeps the global best k.
// merge owns everything the query kinds share: the shard's read lock, open,
// pull-while-admissible, local→global ID translation, Close, the per-shard
// and aggregate sink records, degrade-on-storage-fault and result order.
// What differs per kind is a topkQuery: op name, direction, stream opener,
// key accessor.
//
// Two schedulers drive the same lanes into the same collector:
//
//   - free-running (freeRun): one goroutine per shard drains its stream
//     until the collector's threshold proves it useless. It maximizes
//     wall-clock overlap and is what serving uses, but a shard scheduled
//     ahead of the others can load up to k speculative results before the
//     threshold tightens.
//   - coordinated (coordinated): a sequential best-first k-way merge that
//     pulls one result at a time from the shard whose next candidate has the
//     best bound. Per device this is the minimum I/O any exact merge can do,
//     so the cost-model benchmark (internal/bench.ShardedDiskScaling) and
//     the perf harness meter it to report what the sharded layout costs per
//     device without the scheduler's speculation.
//
// Both return the same results: the collector's result set is independent
// of the interleaving, and the coordinated pull order is one of the
// interleavings the free-running drain admits.
//
// Correctness of the early stop: the threshold only tightens over time, so
// if a shard's remaining bound is strictly worse than the threshold at any
// moment, everything it still holds is strictly worse than the final k-th
// result and can contribute neither a result nor a tie. Candidates exactly
// at the threshold are still offered (the stop test is strict), which keeps
// the tie-handling deterministic: ties on the boundary key are broken by
// smallest global ID, independent of shard arrival order.

// stream is one shard's result stream as the merge sees it — the methods
// the engine's distance and ranked streams share.
type stream[R any] interface {
	Next() (R, bool, error)
	PeekBound() (float64, bool)
	Stats() spatialkeyword.QueryStats
	Close()
}

// topkQuery is what distinguishes one kind of sharded top-k from another.
type topkQuery[R any] struct {
	op          string // sink op: "topk", "area", "ranked"
	k, keywords int
	asc         bool // true keeps the k smallest keys (distances), false the k largest (scores)
	coordinated bool // scheduler: best-bound pull instead of goroutine per shard
	open        func(*spatialkeyword.Engine) (stream[R], error)
	// at returns a result's ordering key and the address of its object ID
	// (shard-local as the stream delivers it, global once merged).
	at func(*R) (key float64, id *uint64)
}

func distanceKey(r *spatialkeyword.Result) (float64, *uint64) { return r.Dist, &r.Object.ID }

func scoreKey(r *spatialkeyword.RankedResult) (float64, *uint64) { return r.Score, &r.Object.ID }

// merger is the state of one running merge.
type merger[R any] struct {
	s   *ShardedEngine
	q   topkQuery[R]
	col *collector[R]

	mu  sync.Mutex // guards agg: free-running lanes finish concurrently
	agg spatialkeyword.QueryStats
}

// lane is one shard's part of a merge, from taking the shard's read lock
// (open) to releasing it (finish).
type lane[R any] struct {
	sh    *shardHandle
	it    stream[R]
	start time.Time
	r     R     // the result being offered; a field so at's pointer costs no allocation per result
	done  bool  // exhausted or failed: not to be pulled again
	err   error // why the lane failed, if it did
}

// merge answers one sharded top-k query: the k best results across all
// healthy shards, best first, with global IDs, plus the summed work.
func merge[R any](s *ShardedEngine, q topkQuery[R]) ([]R, spatialkeyword.QueryStats, error) {
	if q.k <= 0 {
		return nil, spatialkeyword.QueryStats{}, nil
	}
	start := time.Now()
	m := &merger[R]{s: s, q: q, col: &collector[R]{k: q.k, asc: q.asc}}
	schedule := m.freeRun
	if q.coordinated {
		schedule = m.coordinated
	}
	degraded, err := schedule()
	m.agg.Degraded = degraded
	results := m.col.results()
	s.record(obs.QueryMetrics{Op: q.op, Shard: -1, K: q.k, Keywords: q.keywords, Results: len(results),
		Work: m.agg.Work, Latency: time.Since(start), Err: err != nil, Degraded: degraded})
	if err != nil {
		return nil, m.agg, err
	}
	return results, m.agg, nil
}

// open read-locks the shard and opens its stream. Every opened lane must be
// finished. The shard's lock is taken before the engine's (the stream holds
// Engine.mu shared until it ends), and s.mu is never held across either.
func (m *merger[R]) open(sh *shardHandle) *lane[R] {
	sh.mu.RLock()
	ln := &lane[R]{sh: sh, start: time.Now()}
	if it, err := m.q.open(sh.eng); err != nil {
		ln.done, ln.err = true, err
	} else {
		ln.it = it
	}
	return ln
}

// pull moves the lane's next result into the collector, translated to its
// global ID — the step a scheduler repeats once PeekBound says the lane is
// worth advancing.
func (m *merger[R]) pull(ln *lane[R]) {
	var ok bool
	if ln.r, ok, ln.err = ln.it.Next(); ln.err != nil || !ok {
		ln.done = true
		return
	}
	key, id := m.q.at(&ln.r)
	if *id, ln.err = ln.sh.globalID(*id); ln.err != nil {
		ln.done = true
		return
	}
	m.col.offer(key, *id, ln.r)
}

// finish closes the lane's stream, releases the shard, delivers the
// per-shard record and adds the shard's work to the aggregate. It returns
// the lane's error for the scheduler to classify (see degrade).
func (m *merger[R]) finish(ln *lane[R]) error {
	var st spatialkeyword.QueryStats
	if ln.it != nil {
		ln.it.Close()
		st = ln.it.Stats()
	}
	ln.sh.mu.RUnlock()
	m.s.record(obs.QueryMetrics{Op: m.q.op, Shard: ln.sh.idx, Work: st.Work, Latency: time.Since(ln.start), Err: ln.err != nil})
	m.mu.Lock()
	m.agg.Add(st.Work)
	m.mu.Unlock()
	return ln.err
}

// freeRun is the free-running scheduler: every healthy shard drains its own
// lane on its own goroutine until the shared threshold stops it.
func (m *merger[R]) freeRun() (degraded bool, err error) {
	return m.s.fanOut(nil, func(sh *shardHandle) error {
		ln := m.open(sh)
		for !ln.done {
			if bound, ok := ln.it.PeekBound(); !ok || !m.col.admissible(bound) {
				break
			}
			m.pull(ln)
		}
		return m.finish(ln)
	})
}

// coordinated is the coordinated scheduler: all healthy shards are
// read-locked for the whole merge, and each step pulls from the lane with
// the best bound (lowest shard index on ties) until no lane's next
// candidate can beat the global k-th result.
func (m *merger[R]) coordinated() (degraded bool, err error) {
	var lanes []*lane[R]
	for _, sh := range m.s.shards {
		if sh.unhealthy.Load() {
			degraded = true
			continue
		}
		lanes = append(lanes, m.open(sh))
	}
	for {
		var best *lane[R]
		var bestBound float64
		for _, ln := range lanes {
			if ln.done {
				continue
			}
			b, ok := ln.it.PeekBound()
			if !ok {
				ln.done = true
			} else if best == nil || m.col.before(b, bestBound) {
				best, bestBound = ln, b
			}
		}
		if best == nil || !m.col.admissible(bestBound) {
			break // every remaining bound is no better than bestBound
		}
		m.pull(best)
	}
	for _, ln := range lanes {
		if e := m.finish(ln); e != nil {
			if m.s.degrade(ln.sh, e) {
				degraded = true
			} else if err == nil {
				err = e
			}
		}
	}
	return degraded, err
}

// item is one candidate in a collector: its ordering key (distance for
// distance-first and area queries, score for ranked queries), the global
// object ID used as the deterministic tie-break, and the result itself.
type item[R any] struct {
	key float64
	id  uint64
	val R
}

// collector is a bounded top-k merge buffer shared by all shards of one
// query. asc selects the direction: true keeps the k smallest keys
// (distances), false the k largest (scores). Ties on key prefer the
// smallest id in both directions. It publishes the current k-th key through
// an atomic, so shards can test their next candidate's bound without taking
// the lock.
type collector[R any] struct {
	k   int
	asc bool

	mu    sync.Mutex
	items []item[R] // binary heap, weakest kept candidate at the root; at most k
	thr   atomic.Uint64
	full  atomic.Bool
}

// before reports whether key a strictly beats key b under the collector's
// direction.
func (c *collector[R]) before(a, b float64) bool {
	if c.asc {
		return a < b
	}
	return a > b
}

// better reports whether a strictly beats b: by key, then by smallest id.
func (c *collector[R]) better(a, b *item[R]) bool {
	if a.key != b.key {
		return c.before(a.key, b.key)
	}
	return a.id < b.id
}

// admissible reports whether a shard whose best remaining candidate has the
// given bound could still contribute a result or a boundary tie. Shards
// must stop pulling once this turns false — and it never turns true again,
// because the threshold only tightens.
func (c *collector[R]) admissible(bound float64) bool {
	return !c.full.Load() || !c.before(math.Float64frombits(c.thr.Load()), bound)
}

// offer submits one candidate. It returns immediately when the candidate
// cannot enter the current top k.
func (c *collector[R]) offer(key float64, id uint64, val R) {
	it := item[R]{key: key, id: id, val: val}
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.items
	if len(h) < c.k {
		// Sift the newcomer up: a parent must be no better than its children.
		h = append(h, it)
		i := len(h) - 1
		for i > 0 && c.better(&h[(i-1)/2], &h[i]) {
			h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
			i = (i - 1) / 2
		}
		c.items = h
		if len(h) == c.k {
			// The threshold before the flag: admissible reads them unlocked.
			c.thr.Store(math.Float64bits(h[0].key))
			c.full.Store(true)
		}
		return
	}
	if !c.better(&it, &h[0]) {
		return
	}
	// Replace the weakest kept candidate and sift the newcomer down.
	h[0] = it
	for i := 0; ; {
		w := i // the weakest of i and its children
		for _, ch := range [2]int{2*i + 1, 2*i + 2} {
			if ch < len(h) && c.better(&h[w], &h[ch]) {
				w = ch
			}
		}
		if w == i {
			break
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
	c.thr.Store(math.Float64bits(h[0].key))
}

// results returns the collected top k, best first. The collector is spent
// afterwards: the heap order is gone.
func (c *collector[R]) results() []R {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Slice(c.items, func(i, j int) bool { return c.better(&c.items[i], &c.items[j]) })
	out := make([]R, len(c.items))
	for i := range c.items {
		out[i] = c.items[i].val
	}
	return out
}
