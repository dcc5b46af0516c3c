// Package spatialkeyword is a Go implementation of the IR²-Tree from
// "Keyword Search on Spatial Databases" (De Felipe, Hristidis, Rishe,
// ICDE 2008): an index answering top-k spatial keyword queries — "the k
// objects nearest to a point whose text contains these keywords" — by
// combining an R-Tree with superimposed text signatures so that spatial and
// textual pruning happen in a single incremental traversal.
//
// The Engine type is the high-level entry point:
//
//	eng, _ := spatialkeyword.NewEngine(spatialkeyword.Config{})
//	eng.Add([]float64{25.77, -80.19}, "cuban cafe espresso pastelitos")
//	eng.Add([]float64{25.79, -80.13}, "beach bar cocktails live music")
//	results, _ := eng.TopK(5, []float64{25.78, -80.18}, "espresso")
//
// Lower-level building blocks (the disk simulator, the R-Tree, signature
// files, the inverted-index baseline, the experiment harness) live under
// internal/; the cmd/ tools and examples/ directory show them in action.
package spatialkeyword

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"spatialkeyword/internal/core"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/obs"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
	"spatialkeyword/internal/wal"
)

// Config parameterizes an Engine. The zero value is a production-reasonable
// 2-d IR²-Tree with 64-byte signatures on 4 KB blocks.
type Config struct {
	// SignatureBytes is the leaf signature length. Longer signatures mean
	// fewer false positives but a larger index. Zero means 64.
	SignatureBytes int
	// BitsPerWord is how many signature bits each word sets. Zero means 4.
	BitsPerWord int
	// Multilevel selects the MIR²-Tree variant: per-level optimal signature
	// lengths, better query pruning, much costlier updates. When set,
	// ExpectedWordsPerObject must be positive.
	Multilevel bool
	// ExpectedWordsPerObject is the anticipated mean number of distinct
	// words per object (used to size multilevel signatures).
	ExpectedWordsPerObject float64
	// ExpectedVocabulary is the anticipated corpus vocabulary size (caps
	// multilevel signature growth). Zero means 100,000.
	ExpectedVocabulary int
	// Dim is the spatial dimensionality. Zero means 2.
	Dim int
	// BlockSize is the simulated disk block size. Zero means 4096.
	BlockSize int
	// RemoveStopwords drops common English stopwords from documents and
	// queries before indexing.
	RemoveStopwords bool
	// Stemming applies Porter stemming so query keywords match every
	// inflection of indexed words ("fishing" matches "fish", "fished", ...).
	Stemming bool
	// NodeCacheSize bounds the engine's decoded-node cache: hot index nodes
	// are kept decoded in a packed in-memory layout so warm queries skip
	// per-entry parsing and allocation. Cache hits still pay the full
	// modeled disk I/O (and re-verify the node image against the device), so
	// disk accounting is identical with and without the cache. Zero means
	// 1024 nodes; negative disables the cache (every visit then decodes its
	// node's packed image afresh; answers and disk accounting are the same).
	NodeCacheSize int
	// Checksums frames every disk block with a CRC32-C trailer, verified on
	// read, so silent corruption (bit rot, torn writes) surfaces as a typed
	// error instead of being deserialized into a wrong tree. Costs four
	// bytes of payload per block plus one CRC per block access.
	Checksums bool
	// WAL gives a durable engine a write-ahead log: every Add/Delete is
	// group-committed to an append-only log before it is applied, and
	// OpenEngine replays the log suffix on top of the last Save snapshot —
	// so acknowledged mutations survive a crash without a snapshot per
	// mutation. Save truncates the log atomically with its commit point.
	// Only durable engines (NewDurableEngine) honor it.
	WAL bool
	// WALSyncWindow is the group-commit window: how long a commit leader
	// waits for more records before the shared fsync. Zero syncs
	// immediately (lowest latency, one fsync per quiet-period append);
	// a small window (e.g. 2ms) batches concurrent writers.
	WALSyncWindow time.Duration
}

// Object is a spatial object: a point location and a text description.
type Object struct {
	// ID is assigned by the engine in insertion order, starting at 0.
	ID uint64
	// Point is the object's location.
	Point []float64
	// Text is the object's description; keyword matching is case-insensitive
	// on its words.
	Text string
}

// Result is one answer of a distance-first query.
type Result struct {
	Object Object
	// Dist is the Euclidean distance from the query point.
	Dist float64
}

// RankedResult is one answer of a ranked (general) query.
type RankedResult struct {
	Object Object
	// Dist is the Euclidean distance from the query point.
	Dist float64
	// IRScore is the tf-idf relevance of the object's text to the keywords.
	IRScore float64
	// Score is the combined rank value (higher is better).
	Score float64
}

// QueryStats describes the work one query performed: the work record every
// layer shares (node and object accesses, signature pruning, disk blocks —
// see obs.Work for the fields) plus the one thing only a sharded answer has.
type QueryStats struct {
	obs.Work
	// Degraded reports that the answer may be incomplete because one or
	// more shards of a sharded engine were unavailable (storage faults).
	// Single-engine queries never set it.
	Degraded bool
}

// Stats describes an engine's contents and footprint.
type Stats struct {
	// Objects is the number of live (non-deleted) objects.
	Objects int
	// IndexMB and ObjectFileMB are the on-disk footprints.
	IndexMB, ObjectFileMB float64
	// TreeHeight is the number of index levels.
	TreeHeight int
	// Vocabulary is the number of distinct words ever indexed.
	Vocabulary int
}

// NodeCacheStats reports the decoded-node cache's effectiveness. Hits serve
// a warm query's node expansion without decoding (though the modeled disk
// I/O is still charged in full); invalidations count nodes dropped because
// the mutation path rewrote or freed them.
type NodeCacheStats struct {
	Hits, Misses, Evictions, Invalidations uint64
}

// ErrDeleted is returned when operating on a deleted object.
var ErrDeleted = errors.New("spatialkeyword: object deleted")

// ErrUnknownID is returned for out-of-range object IDs.
var ErrUnknownID = errors.New("spatialkeyword: unknown object id")

// ErrBadPoint is wrapped by every backend's rejection of a point (or area
// corner) that CheckPoint refuses — the caller's mistake, where any other
// failed Add or query is the engine's.
var ErrBadPoint = errors.New("spatialkeyword: bad point")

// CheckPoint is the one validation of a caller-supplied point: it must have
// dim coordinates, all of them finite. A NaN or infinite coordinate would
// otherwise poison every MBR above the leaf it lands in, and makes every
// distance meaningless. The check sits at the public entry points, not in the
// apply path, so a record already in a write-ahead log still replays.
func CheckPoint(point []float64, dim int) error {
	if len(point) != dim {
		return fmt.Errorf("%w: has %d dimensions, engine uses %d", ErrBadPoint, len(point), dim)
	}
	for i, c := range point {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: coordinate %d is %g", ErrBadPoint, i, c)
		}
	}
	return nil
}

// Reader is the read contract of a backend, declared once: *Engine — the
// per-shard library type — and the two served backends, *shard.ShardedEngine
// and *repl.Follower, implement it natively; internal/skql plans and executes
// against it (as skql.Target) and cmd/skserve serves it. Every method is safe
// for concurrent use beside the backend's writers.
type Reader interface {
	Get(id uint64) (Object, error)
	TopKWithStats(k int, point []float64, keywords ...string) ([]Result, QueryStats, error)
	TopKRanked(k int, point []float64, keywords ...string) ([]RankedResult, error)
	WithinArea(lo, hi []float64, keywords ...string) ([]Result, error)
	// Search, SearchArea and SearchRanked open the incremental streams the
	// top-k calls are the first k results of (SKQL's TOP … WITHIN pulls
	// SearchArea).
	// An open stream holds the backend's read locks: close it, and do not
	// call the backend from the goroutine that holds it open.
	Search(point []float64, keywords ...string) (ResultStream, error)
	SearchArea(lo, hi []float64, keywords ...string) (ResultStream, error)
	SearchRanked(point []float64, keywords ...string) (RankedStream, error)
	// NumObjects is the size of the object-ID space, deleted rows included.
	NumObjects() int
	// Scan visits every stored row in ID order, deleted rows included (their
	// text still counts toward corpus statistics; filter with IsDeleted once
	// Scan has returned); IDs that were reserved but never stored are not
	// rows. fn runs under the backend's read locks and must not call it.
	Scan(fn func(Object) error) error
	IsDeleted(id uint64) bool
	Stats() Stats
	// Corpus is the document count and per-word document frequencies ranked
	// scoring and the SKQL cost model share.
	Corpus() CorpusStats
	// MeterIO snapshots the disk counters; the returned function reports the
	// blocks read since.
	MeterIO() func() (random, sequential uint64)
	// Flush indexes buffered adds now instead of on the next read.
	Flush() error
}

var _ Reader = (*Engine)(nil)

// Engine is an in-process spatial keyword search engine backed by an
// IR²-Tree (or MIR²-Tree) over a simulated disk. Adds are buffered and
// flushed automatically before queries; see Flush.
//
// An Engine is safe for concurrent use: it locks itself. Reads share one
// lock, mutations and the Set* hooks take it exclusively, and a stream
// (Search, SearchArea, SearchRanked) keeps its share until it is exhausted,
// fails or is closed — so a goroutine must not call back into the engine
// while one of its streams is open (Go's RWMutex is not reentrant once a
// writer is queued), and the WAL, replication and mutation-observer
// callbacks, which run under the exclusive lock, must not call back either.
type Engine struct {
	// mu is the engine's reader/writer exclusion. Nothing below it is
	// touched without it, except the fields fixed at construction (cfg,
	// dim, an, the devices, store and tree pointers, dir, the replayed log).
	mu sync.RWMutex

	cfg     Config
	dim     int
	objDisk storage.Device
	idxDisk storage.Device
	store   *objstore.Store
	tree    *core.IR2Tree
	vocab   *textutil.Vocabulary
	an      *textutil.Analyzer // cfg.Analyzer(); nil = plain tokenization

	// Durable engines (NewDurableEngine / OpenEngine) also track their
	// backing directory, file devices, and last committed snapshot
	// generation; see persistence.go.
	dir     string
	objFile *storage.FileDisk
	idxFile *storage.FileDisk
	gen     uint64

	pending []uint64 // object IDs appended but not yet indexed
	deleted map[uint64]bool
	live    int

	// Write-ahead log state (Config.WAL on a durable engine): mutations
	// are logged and group-committed before they are applied, and replayed
	// on open. See persistence.go for the log's lifecycle.
	walApp      *wal.Appender
	walFile     *storage.FileDisk
	walBroken   error               // sticky: set when the log and applied state may diverge
	walAppends  uint64              // appends of the logs Save has rotated out (WALInfo adds the live log's)
	walFsyncs   uint64              // fsyncs, likewise
	walTorn     uint64              // torn tails truncated at open
	walOnAppend func()              // metrics hook; see SetWALObserver
	walOnFsync  func(time.Duration) // kept so Save's rotation re-installs it

	// Replication hooks (see SetReplicationHooks): the leader side of
	// internal/repl tails the log through them. walReplayRecs keeps the
	// full replayed records so a restarted leader can still serve the
	// current generation's log suffix to followers.
	replOnAppend  func(gen uint64, rec wal.Record)
	replOnRotate  func(newGen uint64)
	walReplayRecs []wal.Record

	// Mutation observer (see SetMutationObserver): fires post-WAL,
	// post-apply with the full object, on the leader write path and on
	// replicated applies. internal/fence evaluates standing queries here.
	mutObserver func(MutationEvent)
}

// engineShell builds an Engine with defaults applied but no devices or
// structures attached.
func engineShell(cfg Config) (*Engine, error) {
	dim := cfg.Dim
	if dim == 0 {
		dim = 2
	}
	return &Engine{
		cfg:     cfg,
		dim:     dim,
		vocab:   textutil.NewVocabulary(),
		an:      cfg.Analyzer(),
		deleted: make(map[uint64]bool),
	}, nil
}

// Analyzer returns the text pipeline the configuration selects — stopword
// removal and stemming — or nil for the plain default. It is the one
// constructor: an engine, a sharded engine's query-term lookups and,
// through CorpusStats.Analyzer, everything that normalises query terms
// against them share it, so they all see the terms the index holds.
func (c Config) Analyzer() *textutil.Analyzer {
	if !c.RemoveStopwords && !c.Stemming {
		return nil
	}
	a := &textutil.Analyzer{Stemming: c.Stemming}
	if c.RemoveStopwords {
		a.Stopwords = textutil.DefaultStopwords()
	}
	return a
}

// checkPoint rejects a point this engine cannot index or query from.
func (e *Engine) checkPoint(point []float64) error { return CheckPoint(point, e.dim) }

// rlock takes the shared lock with every buffered add indexed. A read that
// finds adds pending gives its share up, flushes under the exclusive lock
// and looks again, so readers never see a row the tree does not hold yet.
func (e *Engine) rlock() error {
	for {
		e.mu.RLock()
		if len(e.pending) == 0 {
			return nil
		}
		e.mu.RUnlock()
		if err := e.Flush(); err != nil {
			return err
		}
	}
}

// coreOptions derives the IR²-Tree options from the engine configuration,
// deterministically, so a saved engine reopens with identical structure.
func (e *Engine) coreOptions() core.Options {
	cfg := e.cfg
	sigBytes := cfg.SignatureBytes
	if sigBytes == 0 {
		sigBytes = 64
	}
	k := cfg.BitsPerWord
	if k == 0 {
		k = sigfile.DefaultBitsPerWord
	}
	vocabCap := cfg.ExpectedVocabulary
	if vocabCap == 0 {
		vocabCap = 100000
	}
	return core.Options{
		LeafSignature:     sigfile.Config{LengthBytes: sigBytes, BitsPerWord: k},
		Multilevel:        cfg.Multilevel,
		AvgWordsPerObject: cfg.ExpectedWordsPerObject,
		VocabSize:         vocabCap,
		Dim:               e.dim,
		Analyzer:          e.an,
		CacheNodes:        cfg.NodeCacheSize,
	}
}

// frameDevices applies the configuration's opt-in block framing (checksum
// trailers) on top of the raw devices.
func frameDevices(cfg Config, objDev, idxDev storage.Device) (storage.Device, storage.Device) {
	if cfg.Checksums {
		return storage.NewChecksumDisk(objDev), storage.NewChecksumDisk(idxDev)
	}
	return objDev, idxDev
}

// InjectFault installs (or clears, with nil) a fault-injection hook on all
// of the engine's devices — object file, index, and write-ahead log when
// present — reaching through checksum framing to the real device. It
// reports whether every device accepted the hook; fault-tolerance tests use
// it to make a live engine's storage fail on demand.
func (e *Engine) InjectFault(f storage.FaultFunc) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	devs := []storage.Device{e.objDisk, e.idxDisk}
	if e.walFile != nil {
		devs = append(devs, e.walFile)
	}
	ok := true
	for _, dev := range devs {
		if !setDeviceFault(dev, f) {
			ok = false
		}
	}
	return ok
}

// setDeviceFault finds the innermost device that accepts fault hooks.
func setDeviceFault(dev storage.Device, f storage.FaultFunc) bool {
	for dev != nil {
		if fd, ok := dev.(interface{ SetFault(storage.FaultFunc) }); ok {
			fd.SetFault(f)
			return true
		}
		u, ok := dev.(interface{ Under() storage.Device })
		if !ok {
			return false
		}
		dev = u.Under()
	}
	return false
}

// newEngineOn assembles a fresh engine on the given devices.
func newEngineOn(cfg Config, objDev, idxDev storage.Device) (*Engine, error) {
	e, err := engineShell(cfg)
	if err != nil {
		return nil, err
	}
	if fd, ok := objDev.(*storage.FileDisk); ok {
		e.objFile = fd
	}
	if fd, ok := idxDev.(*storage.FileDisk); ok {
		e.idxFile = fd
	}
	objDev, idxDev = frameDevices(cfg, objDev, idxDev)
	e.objDisk = objDev
	e.idxDisk = idxDev
	e.store = objstore.New(objDev)
	tree, err := core.New(idxDev, e.store, e.coreOptions())
	if err != nil {
		return nil, err
	}
	e.tree = tree
	return e, nil
}

// NewEngine creates an empty in-memory engine.
func NewEngine(cfg Config) (*Engine, error) {
	bs := cfg.BlockSize
	if bs == 0 {
		bs = storage.DefaultBlockSize
	}
	return newEngineOn(cfg, storage.NewDisk(bs), storage.NewDisk(bs))
}

// Add appends an object and schedules it for indexing; it returns the
// object's ID. The object becomes queryable at the next query (or Flush).
// On a WAL-enabled engine the mutation is durable before Add returns.
func (e *Engine) Add(point []float64, text string) (uint64, error) {
	return e.AddTagged(point, text, 0)
}

// AddTagged is Add with an opaque tag recorded alongside the mutation in
// the write-ahead log. The engine never interprets the tag; the sharded
// engine stores its global object ID there so crash recovery can rebuild
// the global→shard assignment. Without a WAL the tag is simply dropped.
func (e *Engine) AddTagged(point []float64, text string, tag uint64) (uint64, error) {
	if err := e.checkPoint(point); err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// The record carries the ID the store will assign, so replay and
	// replicas can verify they reconstruct the same assignment.
	id := uint64(e.store.NumObjects())
	if err := e.apply(wal.Record{Op: wal.OpAdd, ID: id, Tag: tag, Point: point, Text: text}, commit); err != nil {
		return 0, err
	}
	return id, nil
}

// route says how a mutation's record reaches the write-ahead log.
type route int

const (
	// commit is a local write: the record is group-committed — durable when
	// the append returns — and then shown to the WAL-append and replication
	// hooks. On an engine without a log it is logged's equal.
	commit route = iota
	// stage is a record shipped from a leader's log: staged without waiting
	// for the fsync (SyncWAL is the batch boundary), and required to land at
	// the leader's sequence number, i.e. the stream arrived gap-free.
	stage
	// logged is a record read back from the log at open: nothing to write.
	logged
)

// routeNoun is how each route's log-integrity errors name a record.
var routeNoun = [...]string{commit: "record", stage: "replicated record", logged: "wal replay: record"}

// apply is the engine's one write path (DESIGN.md S23): every mutation —
// local, replicated or replayed — is a wal.Record that is logged the way via
// says, checked against the store, applied to store and index, and then shown
// to the mutation observer, in that order, under the exclusive lock. Once the
// record is in the log a failure leaves log and applied state apart, so it
// marks the log broken, which is sticky: every later mutation and Save is
// refused until the engine is reopened.
func (e *Engine) apply(rec wal.Record, via route) error {
	if e.walBroken != nil {
		return fmt.Errorf("spatialkeyword: write-ahead log broken: %w", e.walBroken)
	}
	logs := e.walApp != nil && via != logged
	fail := func(err error) error {
		if logs {
			e.walBroken = err
		}
		return err
	}
	if logs {
		var seq uint64
		var err error
		if via == commit {
			seq, err = e.walApp.Append(rec)
		} else {
			seq, err = e.walApp.AppendAsync(rec)
		}
		if err != nil {
			return fail(err)
		}
		if via == stage && seq != rec.Seq {
			return fail(fmt.Errorf("spatialkeyword: replicated record %d landed at local sequence %d", rec.Seq, seq))
		}
		rec.Seq = seq
		if e.walOnAppend != nil {
			e.walOnAppend()
		}
		if via == commit && e.replOnAppend != nil {
			shipped := rec
			shipped.Point = append([]float64(nil), rec.Point...)
			e.replOnAppend(e.gen, shipped)
		}
	}
	ev := MutationEvent{Delete: rec.Op == wal.OpDelete, ID: rec.ID, Tag: rec.Tag, Point: rec.Point, Text: rec.Text}
	var err error
	switch rec.Op {
	case wal.OpAdd:
		if got := uint64(e.store.NumObjects()); rec.ID != got {
			return fail(fmt.Errorf("spatialkeyword: %s %d adds object %d, store is at %d", routeNoun[via], rec.Seq, rec.ID, got))
		}
		err = e.applyAdd(rec.Point, rec.Text)
	case wal.OpDelete:
		var old objstore.Object
		old, err = e.applyDelete(rec.ID)
		ev.Point, ev.Text = old.Point, old.Text
	default:
		return fail(fmt.Errorf("spatialkeyword: %s %d has unknown op %d", routeNoun[via], rec.Seq, rec.Op))
	}
	if err != nil {
		if via == logged {
			err = fmt.Errorf("spatialkeyword: wal replay %s %d: %w", rec.Op, rec.ID, err)
		}
		return fail(err)
	}
	if e.mutObserver != nil {
		e.mutObserver(ev)
	}
	return nil
}

// applyAdd performs the insertion against the store and index structures.
func (e *Engine) applyAdd(point []float64, text string) error {
	id, _, err := e.store.Append(geo.NewPoint(point...), text)
	if err != nil {
		return err
	}
	e.vocab.AddDocWith(e.an, text)
	e.pending = append(e.pending, uint64(id))
	e.live++
	return nil
}

// Flush durably writes buffered objects and indexes them. Queries call it
// implicitly; explicit calls let callers control when indexing work happens.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flushLocked()
}

// flushLocked is Flush under the exclusive lock.
func (e *Engine) flushLocked() error {
	if len(e.pending) == 0 {
		return nil
	}
	if err := e.store.Sync(); err != nil {
		return err
	}
	for _, id := range e.pending {
		obj, err := e.store.GetByID(objstore.ID(id))
		if err != nil {
			return err
		}
		if err := e.tree.Insert(obj, e.store.Ptrs()[id]); err != nil {
			return err
		}
	}
	e.pending = e.pending[:0]
	return nil
}

// Get returns a stored object by ID.
func (e *Engine) Get(id uint64) (Object, error) {
	e.mu.RLock()
	// Only flush when the requested row could still be in the unflushed
	// buffer. Pending IDs are ascending, so anything below the first pending
	// ID is already synced and readable — a Get on it must not pay write I/O.
	for len(e.pending) > 0 && id >= e.pending[0] && id < uint64(e.store.NumObjects()) {
		e.mu.RUnlock()
		if err := e.Flush(); err != nil {
			return Object{}, err
		}
		e.mu.RLock()
	}
	defer e.mu.RUnlock()
	if id >= uint64(e.store.NumObjects()) {
		return Object{}, fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	if e.deleted[id] {
		return Object{}, fmt.Errorf("%w: %d", ErrDeleted, id)
	}
	obj, err := e.store.GetByID(objstore.ID(id))
	if err != nil {
		return Object{}, err
	}
	return Object{ID: uint64(obj.ID), Point: obj.Point, Text: obj.Text}, nil
}

// Delete removes an object from the index. The object's row remains in the
// append-only object file but will never be returned again. On a
// WAL-enabled engine the deletion is durable before Delete returns.
func (e *Engine) Delete(id uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id >= uint64(e.store.NumObjects()) {
		return fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	if e.deleted[id] {
		return fmt.Errorf("%w: %d", ErrDeleted, id)
	}
	return e.apply(wal.Record{Op: wal.OpDelete, ID: id}, commit)
}

// applyDelete performs the deletion against the index and returns the
// deleted object — it has to load the row to unindex it anyway, and the
// mutation observer wants the object's point and text without paying a
// second store read.
func (e *Engine) applyDelete(id uint64) (objstore.Object, error) {
	if err := e.flushLocked(); err != nil {
		return objstore.Object{}, err
	}
	obj, err := e.store.GetByID(objstore.ID(id))
	if err != nil {
		return objstore.Object{}, err
	}
	ok, err := e.tree.Delete(obj.Point, e.store.Ptrs()[id])
	if err != nil {
		return obj, err
	}
	if !ok {
		return obj, fmt.Errorf("%w: %d not in index", ErrUnknownID, id)
	}
	e.deleted[id] = true
	e.live--
	return obj, nil
}

// TopK returns the k objects containing every keyword, nearest to point
// first — the paper's distance-first top-k spatial keyword query.
func (e *Engine) TopK(k int, point []float64, keywords ...string) ([]Result, error) {
	res, _, err := e.TopKWithStats(k, point, keywords...)
	return res, err
}

// TopKWithStats is TopK plus per-query work counters.
func (e *Engine) TopKWithStats(k int, point []float64, keywords ...string) ([]Result, QueryStats, error) {
	it, err := e.Search(point, keywords...)
	if err != nil {
		return nil, QueryStats{}, err
	}
	out, err := core.TakeK(k, it.Next)
	it.Close()
	return out, it.Stats(), err
}

// TopKRanked returns the k objects with the best combined
// relevance-and-proximity score — the paper's general top-k spatial keyword
// query (objects may contain only some keywords; tf-idf relevance is
// discounted by distance).
func (e *Engine) TopKRanked(k int, point []float64, keywords ...string) ([]RankedResult, error) {
	it, err := e.searchRanked(nil, point, keywords)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	return core.TakeK(k, it.Next)
}

// WALInfo describes an engine's write-ahead log state.
type WALInfo struct {
	// Enabled reports whether the engine has a live log.
	Enabled bool
	// Broken is the sticky error that disabled further mutations, if any.
	Broken error
	// ReplayedRecords is how many log records the open of this engine
	// replayed on top of its snapshot.
	ReplayedRecords uint64
	// TornTails is how many torn tails the open truncated.
	TornTails uint64
	// Appends is the number of mutations logged since open, across every
	// log rotation a Save made.
	Appends uint64
	// Fsyncs is the number of group commits since open; Appends/Fsyncs is
	// the realized batching factor.
	Fsyncs uint64
}

// WALInfo returns the engine's write-ahead log state. On a non-WAL engine
// only the zero value is returned.
func (e *Engine) WALInfo() WALInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	info := WALInfo{
		Enabled:         e.walApp != nil,
		Broken:          e.walBroken,
		ReplayedRecords: uint64(len(e.walReplayRecs)),
		TornTails:       e.walTorn,
		Appends:         e.walAppends,
		Fsyncs:          e.walFsyncs,
	}
	if e.walApp != nil {
		st := e.walApp.Stats()
		info.Appends += st.Appends
		info.Fsyncs += st.Fsyncs
	}
	return info
}

// SetWALObserver installs metrics hooks: onAppend fires after every logged
// mutation, onFsync after every durable group commit with the sync's
// duration. Either may be nil; calls on a non-WAL engine are no-ops.
func (e *Engine) SetWALObserver(onAppend func(), onFsync func(time.Duration)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.walApp == nil {
		return
	}
	e.walOnAppend = onAppend
	e.walOnFsync = onFsync
	e.walApp.SetFsyncObserver(onFsync)
}

// NodeCacheStats reports the decoded-node cache counters accumulated since
// the engine was created (all zero when Config.NodeCacheSize is negative).
// The cache synchronizes its own counters.
func (e *Engine) NodeCacheStats() NodeCacheStats {
	st := e.tree.NodeCacheStats()
	return NodeCacheStats{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		Invalidations: st.Invalidations,
	}
}

// Stats reports the engine's contents and footprint.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return Stats{
		Objects:      e.live,
		IndexMB:      float64(e.idxDisk.SizeBytes()) / 1e6,
		ObjectFileMB: float64(e.objDisk.SizeBytes()) / 1e6,
		TreeHeight:   e.tree.RTree().Height(),
		Vocabulary:   e.vocab.NumWords(),
	}
}
