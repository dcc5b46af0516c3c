// Package shard scales the spatial keyword engine out: a ShardedEngine
// partitions objects over N independent engines (each a full IR²-Tree over
// its own simulated disks) with a grid or hash partitioner, and answers
// queries by merging the shards' result streams.
//
// Writes touch exactly one shard, guarded by that shard's own RWMutex, so
// an insert no longer blocks searches on the rest of the data. Every query
// (distance-first, area, boolean range and general ranked) is a best-first
// k-way merge over every shard's stream, and a top-k is its first k (a range
// query's is every result), which keeps exact top-k semantics — a shard is
// not pulled once its best remaining candidate cannot beat the merge's next
// result, and the merge stops once nothing left can beat the k-th. Every
// query reaches its shards one at a time, in shard order, on the caller's
// goroutine.
//
// Results are identical to a single engine over the same objects: the
// merge is exact (see the correctness note in merge.go), object IDs are
// global, and ranked queries score against engine-wide corpus statistics —
// the sums of the shards' own counts, exact because document frequencies
// over a partition of the documents add up (shard-local idf would re-rank
// results). Ties on the k-th key are broken by smallest global ID, as a
// single engine breaks them: both cut with spatialkeyword.FirstK.
package shard

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/obs"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// Options configures a ShardedEngine.
type Options struct {
	// Shards is the number of shards. Zero means 1.
	Shards int
	// Bounds is the dataset MBR: set, points are routed by a grid
	// partitioner over it; zero, by a hash partitioner (the one choice for
	// unbounded data).
	Bounds geo.Rect
}

// shardLoc addresses one object inside the sharded engine. A negative
// shard index is a tombstone: the global ID was reserved for a mutation
// that never became durable (a WAL append failed, or crash recovery found
// a gap in the logged IDs); the ID is never reused and never resolves.
type shardLoc struct {
	shard int
	local uint64
}

// tombstone marks a reserved-but-dead global ID.
var tombstone = shardLoc{shard: -1}

// place records that global ID gid lives at loc. With unplace it is the only
// writer of the assignment once Open has loaded the manifest: a local Add, a
// replicated record and a record replayed at open all assign through it. IDs
// between the end of the assignment and gid are reservations whose record
// has not arrived, or never will — another shard's stream still in flight,
// a crash — and become tombstones; a tombstone at gid is resurrected; a live
// entry is refused, because two records claiming one ID mean the logs and the
// assignment disagree. The caller holds s.mu (Open, alone with s, need not).
func (s *ShardedEngine) place(gid uint64, loc shardLoc) error {
	for uint64(len(s.assign)) < gid {
		s.assign = append(s.assign, tombstone)
	}
	switch {
	case uint64(len(s.assign)) == gid:
		s.assign = append(s.assign, loc)
	case s.assign[gid].shard < 0:
		s.assign[gid] = loc
	default:
		return fmt.Errorf("%w: global id %d is assigned twice", errCorruptShard, gid)
	}
	return nil
}

// unplace is place's inverse, for a reservation whose record did not apply or
// did not survive: the ID is never reused and never resolves. It takes s.mu.
func (s *ShardedEngine) unplace(gid uint64) {
	s.mu.Lock()
	s.assign[gid] = tombstone
	s.mu.Unlock()
}

// shardHandle is one shard: an independent engine plus its own lock and the
// local→global ID translation. The lock follows the engine's contract —
// queries are concurrent, writes exclusive.
type shardHandle struct {
	idx     int
	mu      sync.RWMutex
	eng     *spatialkeyword.Engine
	globals []uint64 // local object ID → global object ID

	// unhealthy is set (sticky) when the shard's storage faults; fan-outs
	// then skip the shard and report degraded results instead of failing
	// the whole query. lastErr holds the fault that tripped it.
	unhealthy atomic.Bool
	lastErr   atomic.Value // error
}

// globalID translates a shard-local result ID, failing with a typed
// corruption error (instead of panicking) when a damaged shard hands back
// an ID it never assigned.
func (sh *shardHandle) globalID(local uint64) (uint64, error) {
	if local >= uint64(len(sh.globals)) {
		return 0, fmt.Errorf("%w: shard %d returned object %d of %d", errCorruptShard, sh.idx, local, len(sh.globals))
	}
	return sh.globals[local], nil
}

// errCorruptShard marks results that cannot have come from an intact shard.
var errCorruptShard = errors.New("shard: corrupt shard result")

// errShardDown marks operations routed to a shard whose engine could not be
// opened (a WAL-degraded open keeps the rest of the engine serving).
var errShardDown = errors.New("shard: shard unavailable")

// ShardedEngine is a spatially partitioned spatial keyword engine. All
// methods are safe for concurrent use. A query reaches its shards in shard
// order, each under that shard's read lock; writes to different shards
// proceed in parallel.
type ShardedEngine struct {
	cfg    spatialkeyword.Config
	part   Partitioner
	shards []*shardHandle
	an     *textutil.Analyzer // the shards' text pipeline: query terms are looked up as they index them
	// docFreqs is the method value docFreq, which Corpus hands out, bound
	// once.
	docFreqs func(string) int

	// mu guards the global ID map.
	mu     sync.RWMutex
	assign []shardLoc // global object ID → location

	dir  string // backing directory; empty = in-memory
	flat bool   // shard 0 lives in dir itself: an adopted single-engine directory (see persist.go)

	sink obs.Sink // per-query observability sink; nil = disabled

	// Health metrics (optional): shardErrs counts storage faults that
	// degraded a shard, unhealthyGauge tracks how many shards are currently
	// marked unhealthy. See SetHealthMetrics.
	shardErrs      *obs.Counter
	unhealthyGauge *obs.Gauge
}

// SetHealthMetrics installs the observability instruments the engine bumps
// when a shard's storage faults: errs counts every degrading fault, and
// unhealthy gauges the number of shards currently out of rotation. Install
// before serving traffic; the fields are not synchronized.
func (s *ShardedEngine) SetHealthMetrics(errs *obs.Counter, unhealthy *obs.Gauge) {
	s.shardErrs = errs
	s.unhealthyGauge = unhealthy
}

// ShardHealth reports one shard's availability.
type ShardHealth struct {
	Shard   int    `json:"shard"`
	Healthy bool   `json:"healthy"`
	Err     string `json:"err,omitempty"`
}

// Health returns every shard's availability, in shard order.
func (s *ShardedEngine) Health() []ShardHealth {
	out := make([]ShardHealth, len(s.shards))
	for i, sh := range s.shards {
		h := ShardHealth{Shard: i, Healthy: !sh.unhealthy.Load()}
		if !h.Healthy {
			if err, ok := sh.lastErr.Load().(error); ok {
				h.Err = err.Error()
			}
		}
		out[i] = h
	}
	return out
}

// Degraded reports whether any shard is currently marked unhealthy.
func (s *ShardedEngine) Degraded() bool {
	for _, sh := range s.shards {
		if sh.unhealthy.Load() {
			return true
		}
	}
	return false
}

// ResetHealth clears every shard's unhealthy mark — the operator action
// after repairing or replacing a shard's storage. It returns how many
// shards were revived. Shards whose engine could not even be opened
// (WAL-degraded opens leave the handle empty) stay down until reopen.
func (s *ShardedEngine) ResetHealth() int {
	n := 0
	for _, sh := range s.shards {
		if sh.eng == nil {
			continue
		}
		if sh.unhealthy.CompareAndSwap(true, false) {
			n++
		}
	}
	if s.unhealthyGauge != nil {
		s.unhealthyGauge.Set(int64(s.countUnhealthy()))
	}
	return n
}

// InjectShardFault installs (or clears) a fault hook on shard i's devices.
// Fault-tolerance tests use it to fail one shard of a live engine.
func (s *ShardedEngine) InjectShardFault(i int, f storage.FaultFunc) bool {
	if i < 0 || i >= len(s.shards) || s.shards[i].eng == nil {
		return false
	}
	return s.shards[i].eng.InjectFault(f)
}

// degradeable reports whether err is a storage-level failure of the shard
// (device fault, checksum mismatch, corrupt row or result) rather than a
// problem with the query itself. Degradeable errors take the shard out of
// rotation; query errors propagate to the caller.
func degradeable(err error) bool {
	return storage.IsIOFault(err) ||
		errors.Is(err, objstore.ErrCorrupt) ||
		errors.Is(err, errCorruptShard)
}

// degrade takes the shard out of rotation if err is a storage-level failure
// (see degradeable), bumping the health instruments, and reports whether it
// was one.
func (s *ShardedEngine) degrade(sh *shardHandle, err error) bool {
	if !degradeable(err) {
		return false
	}
	sh.lastErr.Store(err)
	first := sh.unhealthy.CompareAndSwap(false, true)
	if s.shardErrs != nil {
		s.shardErrs.Inc()
	}
	if first && s.unhealthyGauge != nil {
		s.unhealthyGauge.Set(int64(s.countUnhealthy()))
	}
	return true
}

func (s *ShardedEngine) countUnhealthy() int {
	n := 0
	for _, sh := range s.shards {
		if sh.unhealthy.Load() {
			n++
		}
	}
	return n
}

// SetMetricsSink installs (or, with nil, removes) the engine's metrics
// sink. Each fanned-out query delivers one record per shard (Shard set to
// the shard index; traversal counters and that shard's disk I/O) plus one
// aggregate record (Shard = -1) carrying the query's wall latency and
// result count — so a sink like obs.QueryRecorder can expose both
// per-shard I/O series and engine-wide totals. Per-shard I/O attribution
// is exact per query because each shard owns its devices and holds its
// read lock while the meter brackets the drain. Install before serving
// traffic; the field itself is not synchronized.
func (s *ShardedEngine) SetMetricsSink(sink obs.Sink) { s.sink = sink }

// record delivers one record of a fanned-out query to the sink, if any.
func (s *ShardedEngine) record(m obs.QueryMetrics) {
	if s.sink != nil {
		s.sink.RecordQuery(m)
	}
}

// resolve fills in Options defaults and builds the partitioner.
func (o Options) resolve() (Partitioner, error) {
	n := o.Shards
	if n == 0 {
		n = 1
	}
	if n < 1 {
		return nil, fmt.Errorf("shard: %d shards", n)
	}
	if !o.Bounds.IsZero() {
		return NewGridPartitioner(n, o.Bounds)
	}
	return NewHashPartitioner(n)
}

// New creates an empty in-memory sharded engine; every shard gets the same
// engine configuration.
func New(cfg spatialkeyword.Config, opts Options) (*ShardedEngine, error) {
	part, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	s := &ShardedEngine{cfg: cfg, part: part, an: cfg.Analyzer()}
	s.docFreqs = s.docFreq
	for i := 0; i < part.Shards(); i++ {
		eng, err := spatialkeyword.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, &shardHandle{idx: i, eng: eng})
	}
	return s, nil
}

// NumShards returns the number of shards.
func (s *ShardedEngine) NumShards() int { return len(s.shards) }

// Add routes the object to its shard by location and returns its global ID.
// The shard queues the add as a single Engine does: it is applied (and, with
// a WAL, logged) when Add returns, searched by every read from then on, and
// indexed by the engine's run rule — into an empty tree at the next read,
// when the run fills, at Save or on Flush — so a load followed by Save packs
// each shard's tree (core.IR2Tree.InsertBatch). A storage fault in that
// deferred work surfaces there and takes the shard out of rotation. The
// global ID is reserved first and handed to the shard as the record's tag: the
// engine-level mutation observer sees it while the add is applied, and with a
// WAL it is logged, so crash recovery can rebuild the global→shard assignment
// from the shards' logs alone. A storage fault in the add itself takes the
// shard out of rotation too.
func (s *ShardedEngine) Add(point []float64, text string) (uint64, error) {
	if err := spatialkeyword.CheckPoint(point); err != nil {
		return 0, err
	}
	sh := s.shards[s.part.Locate(geo.NewPoint(point...))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.eng == nil {
		return 0, fmt.Errorf("shard %d: %w", sh.idx, errShardDown)
	}
	// The shard's write lock makes this the local ID the add will get, and
	// serializes per-shard adds, so global order restricted to one shard
	// equals its local insertion order — the property recovery relies on.
	local := uint64(sh.eng.NumObjects())
	s.mu.Lock()
	gid := uint64(len(s.assign))
	_ = s.place(gid, shardLoc{shard: sh.idx, local: local}) // the next free ID is never a live one
	s.mu.Unlock()
	if _, err := sh.eng.AddTagged(point, text, gid); err != nil {
		// With a WAL the record may or may not have reached the log durably
		// (a failed sync leaves that unknown), so the global ID must never be
		// reused — recovery could resurrect the record under it. Tombstone
		// it; the shard's sticky-broken WAL guarantees the local ID cannot
		// alias either.
		s.unplace(gid)
		s.degrade(sh, err)
		return 0, fmt.Errorf("shard %d: %w", sh.idx, err)
	}
	sh.globals = append(sh.globals, gid)
	return gid, nil
}

// Flush indexes every open, healthy shard's queued adds now (see
// eachHealthy).
func (s *ShardedEngine) Flush() error {
	return s.eachHealthy((*spatialkeyword.Engine).Flush)
}

// PrepareRead runs every open, healthy shard engine's PrepareRead (see
// eachHealthy): SKQL calls it twice per statement, and with nothing to do
// no engine takes its exclusive lock.
func (s *ShardedEngine) PrepareRead() error {
	return s.eachHealthy((*spatialkeyword.Engine).PrepareRead)
}

// eachHealthy runs f on every open, healthy shard's engine. It holds each
// shard's read lock only, as a lane does while its engine reads. A shard
// whose f hits a storage fault is taken out of rotation, and the fan-outs
// after it report degraded results.
func (s *ShardedEngine) eachHealthy(f func(*spatialkeyword.Engine) error) error {
	for _, sh := range s.shards {
		if sh.eng == nil || sh.unhealthy.Load() {
			continue
		}
		sh.mu.RLock()
		err := f(sh.eng)
		sh.mu.RUnlock()
		if err != nil && !s.degrade(sh, err) {
			return fmt.Errorf("shard %d: %w", sh.idx, err)
		}
	}
	return nil
}

// locate resolves a global ID, or fails with the engine's error values.
// Tombstoned IDs (reservations that never became durable) are unknown.
func (s *ShardedEngine) locate(gid uint64) (shardLoc, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if gid >= uint64(len(s.assign)) || s.assign[gid].shard < 0 {
		return shardLoc{}, fmt.Errorf("%w: %d", spatialkeyword.ErrUnknownID, gid)
	}
	return s.assign[gid], nil
}

// reglobal rewrites a shard-local error to name the global ID.
func reglobal(err error, gid uint64) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, spatialkeyword.ErrDeleted):
		return fmt.Errorf("%w: %d", spatialkeyword.ErrDeleted, gid)
	case errors.Is(err, spatialkeyword.ErrUnknownID):
		return fmt.Errorf("%w: %d", spatialkeyword.ErrUnknownID, gid)
	default:
		return err
	}
}

// Get returns a stored object by global ID.
func (s *ShardedEngine) Get(gid uint64) (spatialkeyword.Object, error) {
	loc, err := s.locate(gid)
	if err != nil {
		return spatialkeyword.Object{}, err
	}
	sh := s.shards[loc.shard]
	sh.mu.RLock()
	if sh.eng == nil {
		sh.mu.RUnlock()
		return spatialkeyword.Object{}, fmt.Errorf("shard %d: %w", sh.idx, errShardDown)
	}
	obj, err := sh.eng.Get(loc.local)
	sh.mu.RUnlock()
	if err != nil {
		s.degrade(sh, err) // a Get may be what indexes the shard's queued adds
		return spatialkeyword.Object{}, reglobal(err, gid)
	}
	obj.ID = gid
	return obj, nil
}

// Delete removes an object from its shard's index, indexing the shard's
// queued adds first. A storage fault takes the shard out of rotation.
func (s *ShardedEngine) Delete(gid uint64) error {
	loc, err := s.locate(gid)
	if err != nil {
		return err
	}
	sh := s.shards[loc.shard]
	sh.mu.Lock()
	if sh.eng == nil {
		sh.mu.Unlock()
		return fmt.Errorf("shard %d: %w", sh.idx, errShardDown)
	}
	err = sh.eng.Delete(loc.local)
	sh.mu.Unlock()
	if err != nil {
		s.degrade(sh, err)
	}
	return reglobal(err, gid)
}

// The queries are one of four kinds — nearest to a point, nearest to an
// area, inside an area, ranked — pulled by one of two consumers: topK, which
// takes the first k of the merged stream (TopK, TopKRanked, and WithinArea
// with k unbounded), or the caller itself, pulling from the stream openStream
// returns (Search, SearchArea, SearchRanked). The entries topK serves check
// the point or area first: with k ≤ 0 topK opens no lane, so no shard's
// engine would.

func (s *ShardedEngine) nearQuery(op string, k int, point []float64, keywords []string) topkQuery[spatialkeyword.Result] {
	return topkQuery[spatialkeyword.Result]{
		op: op, k: k, keywords: len(keywords), asc: true, at: distanceKey,
		open: func(e *spatialkeyword.Engine) (stream[spatialkeyword.Result], error) {
			return e.Search(point, keywords...)
		},
	}
}

// areaQuery is a query on a rectangle: search is Engine.SearchArea (nearest
// to the area) or Engine.SearchWithin (the range query).
func (s *ShardedEngine) areaQuery(op string, lo, hi []float64, keywords []string,
	search func(*spatialkeyword.Engine, []float64, []float64, ...string) (spatialkeyword.ResultStream, error)) topkQuery[spatialkeyword.Result] {
	return topkQuery[spatialkeyword.Result]{
		op: op, keywords: len(keywords), asc: true, at: distanceKey,
		open: func(e *spatialkeyword.Engine) (stream[spatialkeyword.Result], error) {
			return search(e, lo, hi, keywords...)
		},
	}
}

// rankedQuery scores every shard against the corpus-wide statistics, so all
// of them rank with the idf weights a single engine would use. The document
// count and the frequency of each normalised query term are resolved here,
// before any lane opens, into the query's pooled rankedArgs: a lane holds
// its engine's shared lock, and Corpus's DocFreq taken inside it would be the
// reentrant read lock DESIGN.md §7.2 (Locks, rule 2) forbids. A warm query
// allocates nothing here; the stream's end returns the arguments.
func (s *ShardedEngine) rankedQuery(op string, k int, point []float64, keywords []string) topkQuery[spatialkeyword.RankedResult] {
	a := rankedArgsPool.Get().(*rankedArgs)
	cs := s.Corpus()
	a.cs.NumDocs = cs.NumDocs
	a.terms, a.dfs = a.terms[:0], a.dfs[:0]
	for _, w := range keywords {
		// A duplicate is looked up twice, and docFreq finds the first.
		if t := s.an.Keyword(w); t != "" {
			a.terms = append(a.terms, t)
			a.dfs = append(a.dfs, cs.DocFreq(t))
		}
	}
	a.point, a.keywords = point, keywords
	return topkQuery[spatialkeyword.RankedResult]{
		op: op, k: k, keywords: len(keywords), at: scoreKey, open: a.open, ranked: a,
	}
}

// rankedArgs is a sharded ranked query's arguments and corpus statistics.
// Its DocFreq and lane opener are bound once, when the pool makes it, so a
// query that takes one from the pool builds no closure.
type rankedArgs struct {
	cs       spatialkeyword.CorpusStats // NumDocs, and DocFreq bound to docFreq
	terms    []string                   // the normalized keywords, in query order
	dfs      []int                      // each term's document frequency over the open shards
	point    []float64
	keywords []string
	open     func(*spatialkeyword.Engine) (stream[spatialkeyword.RankedResult], error) // bound to openLane
}

var rankedArgsPool = sync.Pool{New: func() any {
	a := new(rankedArgs)
	a.cs.DocFreq, a.open = a.docFreq, a.openLane
	return a
}}

// docFreq answers the scorer's lookups, which are the query's own terms.
func (a *rankedArgs) docFreq(term string) int {
	if i := slices.Index(a.terms, term); i >= 0 {
		return a.dfs[i]
	}
	return 0
}

// openLane opens one shard's ranked stream.
func (a *rankedArgs) openLane(e *spatialkeyword.Engine) (stream[spatialkeyword.RankedResult], error) {
	return e.SearchRankedWith(a.cs, a.point, a.keywords...)
}

// release returns the arguments to the pool, dropping what they reference.
func (a *rankedArgs) release() {
	clear(a.terms)
	a.point, a.keywords = nil, nil
	rankedArgsPool.Put(a)
}

// TopK returns the k objects containing every keyword, nearest to point
// first — fanned out across all shards.
func (s *ShardedEngine) TopK(k int, point []float64, keywords ...string) ([]spatialkeyword.Result, error) {
	res, _, err := s.TopKWithStats(k, point, keywords...)
	return res, err
}

// TopKWithStats is TopK plus aggregated per-shard work counters.
func (s *ShardedEngine) TopKWithStats(k int, point []float64, keywords ...string) ([]spatialkeyword.Result, spatialkeyword.QueryStats, error) {
	if err := spatialkeyword.CheckPoint(point); err != nil {
		return nil, spatialkeyword.QueryStats{}, err
	}
	return topK(s, s.nearQuery("topk", k, point, keywords), k)
}

// TopKSerial is TopK, kept under the name the wall-clock benchmark harness
// calls.
func (s *ShardedEngine) TopKSerial(k int, point []float64, keywords ...string) ([]spatialkeyword.Result, error) {
	return s.TopK(k, point, keywords...)
}

// Search starts an incremental distance-first query over all shards: the
// merge as a stream. Every healthy shard stays read-locked until the stream
// ends or is closed. (With an error the stream returned is a closed one, not
// nil: closing it again is harmless.)
func (s *ShardedEngine) Search(point []float64, keywords ...string) (spatialkeyword.ResultStream, error) {
	return openStream(s, s.nearQuery("stream", 0, point, keywords))
}

// SearchArea is Search ordered by distance to the rectangle (zero inside
// it). Like any distance-ranked query it fans out to every shard: objects far
// outside a shard's region can still be among the nearest to the area.
func (s *ShardedEngine) SearchArea(lo, hi []float64, keywords ...string) (spatialkeyword.ResultStream, error) {
	return openStream(s, s.areaQuery("stream", lo, hi, keywords, (*spatialkeyword.Engine).SearchArea))
}

// Corpus returns the engine-wide corpus statistics as sums over the open
// shards, each shard's engine the only owner of its own counts: NumDocs is
// read now, and DocFreq (docFreq, bound once per engine, so a call
// allocates nothing) adds every engine's Engine.DocFreq, which takes that
// engine's shared lock — so, as for a single engine, it must not be called
// while the caller holds a stream open on this engine. Both include deleted
// documents, matching single-engine idf semantics.
func (s *ShardedEngine) Corpus() spatialkeyword.CorpusStats {
	cs := spatialkeyword.CorpusStats{Analyzer: s.an, DocFreq: s.docFreqs}
	for _, sh := range s.shards {
		if sh.eng != nil {
			cs.NumDocs += sh.eng.Corpus().NumDocs
		}
	}
	return cs
}

// docFreq is the corpus-wide document frequency of word: every open
// shard's, summed.
func (s *ShardedEngine) docFreq(word string) int {
	n := 0
	for _, sh := range s.shards {
		if sh.eng != nil {
			n += sh.eng.DocFreq(word)
		}
	}
	return n
}

// TopKRanked returns the k objects with the best combined
// relevance-and-proximity score, fanned out across all shards and merged by
// descending score (score ties broken by smallest global ID).
func (s *ShardedEngine) TopKRanked(k int, point []float64, keywords ...string) ([]spatialkeyword.RankedResult, error) {
	if err := spatialkeyword.CheckPoint(point); err != nil {
		return nil, err
	}
	res, _, err := topK(s, s.rankedQuery("ranked", k, point, keywords), k)
	return res, err
}

// SearchRanked starts an incremental general ranked query over all shards,
// best combined score first.
func (s *ShardedEngine) SearchRanked(point []float64, keywords ...string) (spatialkeyword.RankedStream, error) {
	return openStream(s, s.rankedQuery("stream", 0, point, keywords))
}

// WithinArea returns every object inside the rectangle containing all the
// keywords, ordered by global ID: the merge's FirstK over every shard's
// range stream (Engine.SearchWithin), with the top-k queries' rules — a
// shard out of rotation or failing with a storage fault degrades the answer,
// any other error fails it, the first in shard order.
func (s *ShardedEngine) WithinArea(lo, hi []float64, keywords ...string) ([]spatialkeyword.Result, spatialkeyword.QueryStats, error) {
	if err := spatialkeyword.CheckArea(lo, hi); err != nil {
		return nil, spatialkeyword.QueryStats{}, err
	}
	return topK(s, s.areaQuery("area", lo, hi, keywords, (*spatialkeyword.Engine).SearchWithin), math.MaxInt)
}

// The rest of the read contract (see spatialkeyword.Reader), beside the
// queries and Corpus: the methods internal/skql's executor and cost model
// need, mirroring the single engine's of the same names.

var _ spatialkeyword.Reader = (*ShardedEngine)(nil)

// NumObjects returns the number of global IDs ever assigned, including
// deleted and tombstoned ones. Valid global IDs are [0, NumObjects).
func (s *ShardedEngine) NumObjects() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.assign)
}

// Rows is Engine.Rows by global ID, one shard at a time: the IDs are
// grouped by shard under the assignment's lock, and each shard's are asked
// of its engine under the shard's lock. A tombstoned ID (reserved but never
// durable) is passed over, and a shard out of rotation that holds any of
// gids fails the call.
func (s *ShardedEngine) Rows(gids []uint64, terms []string, fn func(i int, point []float64, terms []string)) error {
	sc := rowsPool.Get().(*rowsScratch)
	defer rowsPool.Put(sc)
	for len(sc.locals) < len(s.shards) {
		sc.locals, sc.at = append(sc.locals, nil), append(sc.at, nil)
	}
	for k := range s.shards {
		sc.locals[k], sc.at[k] = sc.locals[k][:0], sc.at[k][:0]
	}
	s.mu.RLock()
	for i, gid := range gids {
		if gid < uint64(len(s.assign)) && s.assign[gid].shard >= 0 {
			loc := s.assign[gid]
			sc.locals[loc.shard], sc.at[loc.shard] = append(sc.locals[loc.shard], loc.local), append(sc.at[loc.shard], i)
		}
	}
	s.mu.RUnlock()
	for k, sh := range s.shards {
		if len(sc.locals[k]) == 0 {
			continue
		}
		var err error
		at := sc.at[k]
		sh.mu.RLock()
		if sh.eng == nil {
			err = fmt.Errorf("shard %d: %w", sh.idx, errShardDown)
		} else {
			err = sh.eng.Rows(sc.locals[k], terms, func(j int, p []float64, ts []string) { fn(at[j], p, ts) })
		}
		sh.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// rowsScratch is the memory of one Rows call: per shard, the local IDs
// asked of it and each one's index in the caller's IDs. rowsPool keeps it
// across calls.
type rowsScratch struct {
	locals [][]uint64
	at     [][]int
}

var rowsPool = sync.Pool{New: func() any { return new(rowsScratch) }}

// MeterIO snapshots every shard's disk counters; the returned function
// reports the random and sequential block accesses performed since the
// snapshot, summed across shards. Concurrent queries share the
// counters, so per-query attribution is exact only when the engine
// runs one query at a time.
func (s *ShardedEngine) MeterIO() func() (random, sequential uint64) {
	start := s.totalIO()
	return func() (uint64, uint64) {
		io := s.totalIO().Sub(start)
		return io.Random(), io.Sequential()
	}
}

// totalIO sums every available shard's device counters.
func (s *ShardedEngine) totalIO() storage.Stats {
	var total storage.Stats
	for _, sh := range s.shards {
		if sh.eng != nil {
			total = total.Add(sh.eng.IOStats())
		}
	}
	return total
}

// Stats sums the per-shard engine statistics: object counts and disk
// footprints add up, and tree height reports the tallest shard. Vocabulary
// is the sum of the shards' word counts too — exact for one shard, while a
// word two shards index counts twice. SKQL plans call Stats per statement,
// so it stays a sum: no per-word work. Each shard packs its own first batch,
// so signature lengths by level are per shard, in ShardStats.
func (s *ShardedEngine) Stats() spatialkeyword.Stats {
	var out spatialkeyword.Stats
	for _, st := range s.ShardStats() {
		out.Objects += st.Objects
		out.IndexMB += st.IndexMB
		out.ObjectFileMB += st.ObjectFileMB
		out.Vocabulary += st.Vocabulary
		if st.TreeHeight > out.TreeHeight {
			out.TreeHeight = st.TreeHeight
		}
	}
	return out
}

// NodeCacheStats sums the per-shard decoded-node cache counters. Shards
// never share a cache, so the sum is exact.
func (s *ShardedEngine) NodeCacheStats() spatialkeyword.NodeCacheStats {
	var out spatialkeyword.NodeCacheStats
	for _, sh := range s.shards {
		if sh.eng == nil {
			continue
		}
		st := sh.eng.NodeCacheStats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Evictions += st.Evictions
		out.Invalidations += st.Invalidations
	}
	return out
}

// MeterShardIO snapshots every shard's disk counters; the returned stop
// function reports each shard's block accesses since the snapshot, in shard
// order. Shards are independent devices, so a fan-out query's modeled disk
// time is the maximum — not the sum — of the per-shard times; the benchmark
// harness uses this hook for that accounting. Attribution is exact only
// while the engine runs one query at a time.
func (s *ShardedEngine) MeterShardIO() func() []storage.Stats {
	start := s.shardIO()
	return func() []storage.Stats {
		out := s.shardIO()
		for i := range out {
			out[i] = out[i].Sub(start[i])
		}
		return out
	}
}

// shardIO reads every shard's device counters, in shard order; an
// unavailable shard reads zero.
func (s *ShardedEngine) shardIO() []storage.Stats {
	out := make([]storage.Stats, len(s.shards))
	for i, sh := range s.shards {
		if sh.eng != nil {
			out[i] = sh.eng.IOStats()
		}
	}
	return out
}

// ShardStats returns each shard's own engine statistics, in shard order.
// An unavailable shard reports the zero value.
func (s *ShardedEngine) ShardStats() []spatialkeyword.Stats {
	out := make([]spatialkeyword.Stats, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		if sh.eng != nil {
			out[i] = sh.eng.Stats()
		}
		sh.mu.RUnlock()
	}
	return out
}

// WALInfo aggregates every shard's write-ahead-log state: counters sum,
// Enabled reflects the configuration, and Broken carries the first shard's
// sticky failure (shards that failed to open at all count one torn-tail-
// free, zero-record entry — their state is unknown until repaired).
func (s *ShardedEngine) WALInfo() spatialkeyword.WALInfo {
	info := spatialkeyword.WALInfo{Enabled: s.cfg.WAL}
	for _, sh := range s.shards {
		if sh.eng == nil {
			continue
		}
		sh.mu.RLock()
		wi := sh.eng.WALInfo()
		sh.mu.RUnlock()
		info.ReplayedRecords += wi.ReplayedRecords
		info.TornTails += wi.TornTails
		info.Appends += wi.Appends
		info.Fsyncs += wi.Fsyncs
		if info.Broken == nil && wi.Broken != nil {
			info.Broken = fmt.Errorf("shard %d: %w", sh.idx, wi.Broken)
		}
	}
	return info
}

// SetWALObserver installs the metrics hooks on every shard's log (see the
// engine's SetWALObserver). Install before serving traffic.
func (s *ShardedEngine) SetWALObserver(onAppend func(), onFsync func(time.Duration)) {
	for _, sh := range s.shards {
		if sh.eng == nil {
			continue
		}
		sh.eng.SetWALObserver(onAppend, onFsync)
	}
}
