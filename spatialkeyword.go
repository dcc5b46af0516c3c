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
	"slices"
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
// IR²-Tree with 64-byte signatures on 4 KB blocks. Every engine indexes 2-d
// points (latitude, longitude), and each word sets
// sigfile.DefaultBitsPerWord = 4 signature bits.
type Config struct {
	// SignatureBytes is the length of the leaf filter, the signature of each
	// object's words that a query tests every entry of a leaf with. Longer
	// signatures mean fewer false positives, each a test in memory, for
	// SignatureBytes bytes of memory per object: the engine's row table
	// holds them, and the leaves store none, so the length does not change
	// the index's size or a leaf's blocks (a full leaf is one block). Zero
	// means 64. The levels above the leaves are sized from the data when
	// the first batch of objects is packed (see Stats.SignatureBytesByLevel):
	// a level whose nodes each hold nearly every word gets no signature, the
	// root of a small batch keeps this length, and any other level gets the
	// length at which a word it lacks passes one time in four.
	SignatureBytes int
	// BlockSize is the disk block size, from 32 B to 1 MiB. Zero means 4096.
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
	// modeled disk I/O (a charge when the device shows the node's blocks
	// unwritten since they were read, a re-read and compare otherwise), so
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
	// SignatureBytesByLevel is the signature length of the index entries at
	// each level, the leaves' first: SignatureBytes, the leaf filter's
	// length, which the row table holds and the leaves do not (a directory
	// written before leaves stopped storing signatures stores them there),
	// then the lengths the first packed batch chose for the levels above (0
	// for a level with no signature). A level added later, when the root
	// splits, has the length of the level below it.
	SignatureBytesByLevel []int
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
// geo.Dims (2) coordinates, all of them finite. A NaN or infinite coordinate
// would otherwise poison every MBR above the leaf it lands in, and makes
// every distance meaningless. The check sits at the public entry points, not in the
// apply path, so a record already in a write-ahead log still replays.
func CheckPoint(point []float64) error {
	if len(point) != geo.Dims {
		return fmt.Errorf("%w: has %d dimensions, engine uses %d", ErrBadPoint, len(point), geo.Dims)
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
	WithinArea(lo, hi []float64, keywords ...string) ([]Result, QueryStats, error)
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
	// Rows calls fn for each of ids that names a live row, with i, the ID's
	// index in ids, the row's point and, when terms is not nil, its distinct
	// analyzed terms, appended to terms[:0]: views valid during fn only. An
	// ID of a deleted row, or of none, is passed over. It reads the row
	// table, no object-file block. The calls come in no set order, and fn
	// runs under the backend's read locks: it must not call back into it.
	Rows(ids []uint64, terms []string, fn func(i int, point []float64, terms []string)) error
	Stats() Stats
	// Corpus is the document count and per-word document frequencies ranked
	// scoring and the SKQL cost model share.
	Corpus() CorpusStats
	// MeterIO snapshots the disk counters; the returned function reports the
	// blocks read since.
	MeterIO() func() (random, sequential uint64)
	// Flush indexes the queued adds now. Reads do not need it: they search
	// the queued rows beside the tree.
	Flush() error
	// PrepareRead does now the storage work a read would otherwise do first
	// — it writes out the object file's open block, and packs rows queued
	// for an empty tree — so that what comes after (a cost estimate, a
	// metered operator) is not charged for it. It indexes nothing else.
	// With nothing to do it takes no exclusive lock and is safe beside an
	// open stream on another goroutine.
	PrepareRead() error
}

var _ Reader = (*Engine)(nil)

// Engine is an in-process spatial keyword search engine backed by an
// IR²-Tree (or MIR²-Tree) over a simulated disk. Adds wait in an in-memory run that every
// query searches beside the tree; the tree takes the run when it is empty,
// when the run is full, at Save and on Flush.
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
	// an, the devices, store and tree pointers, dir, the replayed log).
	mu sync.RWMutex

	cfg     Config
	objDisk storage.Device
	idxDisk storage.Device
	store   *objstore.Store
	tree    *core.IR2Tree
	an      *textutil.Analyzer // cfg.Analyzer(); nil = plain tokenization
	// rows is the in-memory row table, indexed by object ID: the vocabulary
	// and every row's term IDs and counts, term-frequency summary and point.
	// A query tests and scores its candidates from it and reads a row only
	// to return it (core.Rows); a flush indexes the queued rows from it. It
	// is filled where a row is analyzed — an add, a replayed or replicated
	// one, and the scan of the object file at open.
	rows core.Rows

	// Durable engines (NewDurableEngine / OpenEngine) also track their
	// backing directory, file devices, and last committed snapshot
	// generation; see persistence.go.
	dir     string
	objFile *storage.Disk
	idxFile *storage.Disk
	gen     uint64

	// docFreq is the method value DocFreq, which Corpus hands out, and
	// vocabDocFreq the vocabulary's, which a ranked query on the engine's
	// own statistics scores with under the lock it already holds: each
	// bound once, so a query builds neither.
	docFreq, vocabDocFreq func(string) int

	// run is the IDs of the rows appended but not yet indexed, live and
	// ascending: every read searches them beside the tree (see flushLocked
	// for when the tree takes them). A deleted row leaves it.
	run []uint64

	deleted map[uint64]bool
	live    int

	// Write-ahead log state (Config.WAL on a durable engine): mutations
	// are logged and group-committed before they are applied, and replayed
	// on open. See persistence.go for the log's lifecycle.
	walApp      *wal.Appender
	walFile     *storage.Disk
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
func engineShell(cfg Config) *Engine {
	e := &Engine{
		cfg:     cfg,
		an:      cfg.Analyzer(),
		deleted: make(map[uint64]bool),
	}
	e.rows.Vocab = textutil.NewVocabulary()
	e.rows.Leaf = e.coreOptions().LeafSignature
	e.docFreq, e.vocabDocFreq = e.DocFreq, e.rows.Vocab.DocFreq
	return e
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

// rlock takes the shared lock for a read. A read may load a queued row, so
// every appended row must be readable from the store first, and rows queued
// for an empty tree are packed first. A read that finds either left to do
// gives its share up, syncs the store's open block (or packs) under the
// exclusive lock and looks again; it indexes nothing else.
func (e *Engine) rlock() error {
	for {
		e.mu.RLock()
		if !e.store.Unsynced() && !e.packs() {
			return nil
		}
		e.mu.RUnlock()
		e.mu.Lock()
		var err error
		if e.packs() {
			err = e.flushLocked()
		} else {
			err = e.store.Sync()
		}
		e.mu.Unlock()
		if err != nil {
			return err
		}
	}
}

// packs reports whether rows wait for an empty tree: the next read, Save or
// Flush packs them (core.IR2Tree.InsertBatch).
func (e *Engine) packs() bool {
	return len(e.run) > 0 && e.tree.RTree().Height() == 0
}

// coreOptions derives the IR²-Tree options from the engine configuration,
// deterministically, so a saved engine reopens with identical structure.
func (e *Engine) coreOptions() core.Options {
	cfg := e.cfg
	sigBytes := cfg.SignatureBytes
	if sigBytes == 0 {
		sigBytes = 64
	}
	return core.Options{
		LeafSignature: sigfile.Config{LengthBytes: sigBytes, BitsPerWord: sigfile.DefaultBitsPerWord},
		Analyzer:      e.an,
		CacheNodes:    cfg.NodeCacheSize,
	}
}

// frameDevice applies the configuration's opt-in block framing (checksum
// trailers) on top of a raw device.
func frameDevice(cfg Config, dev storage.Device) storage.Device {
	if cfg.Checksums {
		return storage.NewChecksumDisk(dev)
	}
	return dev
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
	e := engineShell(cfg)
	objDev, idxDev = frameDevice(cfg, objDev), frameDevice(cfg, idxDev)
	e.objDisk = objDev
	e.idxDisk = idxDev
	e.store = objstore.New(objDev)
	tree, err := core.NewServed(idxDev, e.store, e.coreOptions(), &e.rows)
	if err != nil {
		return nil, err
	}
	e.tree = tree
	return e, nil
}

// NewEngine creates an empty in-memory engine.
func NewEngine(cfg Config) (*Engine, error) {
	bs := cfg.blockSize()
	if bs < storage.MinBlockSize || bs > storage.MaxBlockSize {
		return nil, fmt.Errorf("spatialkeyword: block size %d outside [%d, %d]", bs, storage.MinBlockSize, storage.MaxBlockSize)
	}
	return newEngineOn(cfg, storage.NewDisk(bs), storage.NewDisk(bs))
}

// Add appends an object and queues it for indexing; it returns the
// object's ID. The object is queryable at once: reads search the queued
// rows beside the tree.
// On a WAL-enabled engine the mutation is durable before Add returns.
func (e *Engine) Add(point []float64, text string) (uint64, error) {
	return e.AddTagged(point, text, 0)
}

// AddTagged is Add with an opaque tag recorded alongside the mutation in
// the write-ahead log. The engine never interprets the tag; the sharded
// engine stores its global object ID there so crash recovery can rebuild
// the global→shard assignment. Without a WAL the tag is simply dropped.
func (e *Engine) AddTagged(point []float64, text string, tag uint64) (uint64, error) {
	if err := CheckPoint(point); err != nil {
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

// applyAdd appends the row to the store and queues it in the run. The row
// is analyzed once, here, into the row table (core.Rows.Add): the run's
// term test and the flush read its words there. The add that fills the run
// to a leaf's worth of rows hands it to a non-empty tree, so a query's scan
// of the run never costs more than one leaf.
func (e *Engine) applyAdd(point []float64, text string) error {
	p := geo.NewPoint(point...)
	id, _, err := e.store.Append(p, text)
	if err != nil {
		return err
	}
	e.rows.Add(id, p, e.an, text)
	e.run = append(e.run, uint64(id))
	e.live++
	if t := e.tree.RTree(); t.Height() > 0 && len(e.run) >= t.Capacity(0) {
		return e.flushLocked()
	}
	return nil
}

// Flush durably writes the queued rows and indexes them now. Reads do not
// need it (they search the queued rows); it lets a caller choose when the
// indexing work happens. With nothing queued it returns under the shared
// lock, so a Flush beside an open stream does not queue behind it as a
// writer.
func (e *Engine) Flush() error {
	e.mu.RLock()
	idle := len(e.run) == 0
	e.mu.RUnlock()
	if idle {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flushLocked()
}

// flushLocked is Flush under the exclusive lock: the queued rows go to the
// tree as one batch. It runs in four cases only (DESIGN.md "When a flush
// packs"): into an empty tree — a load followed by Save or a first read, a
// log replayed onto an empty snapshot — where the batch is packed
// (core.IR2Tree.InsertBatch); in the add that fills the run; in Save; and
// on an explicit Flush.
func (e *Engine) flushLocked() error {
	if len(e.run) == 0 {
		return nil
	}
	if err := e.store.Sync(); err != nil {
		return err
	}
	// Every queued row's term IDs, row after row, and then their words.
	var ids []uint32
	var counts []int32
	ends := make([]int, len(e.run))
	for i, id := range e.run {
		ids, counts = e.rows.Terms.Terms(int(id), ids, counts[:0])
		ends[i] = len(ids)
	}
	words := make([]string, len(ids))
	for i, t := range ids {
		words[i] = e.rows.Vocab.Word(t)
	}
	batch := make([]core.Entry, len(e.run))
	start := 0
	for i, id := range e.run {
		batch[i] = core.Entry{Ref: id, Point: e.rows.Point(int(id)), Words: words[start:ends[i]:ends[i]]}
		start = ends[i]
	}
	n, err := e.tree.InsertBatch(batch)
	// The rows the tree took leave the run, so none is answered twice or
	// indexed again by a retried flush.
	e.run = slices.Delete(e.run, 0, n)
	if len(e.run) == 0 {
		e.run = nil // a load's first flush can queue a large run
	}
	return err
}

// Get returns a stored object by ID.
func (e *Engine) Get(id uint64) (Object, error) {
	e.mu.RLock()
	// Only a queued row can still be in the store's open block, so only a
	// Get on one syncs it: a Get on a tree row must not pay write I/O, and
	// no Get indexes anything.
	for e.queuedUnsynced(id) {
		e.mu.RUnlock()
		e.mu.Lock()
		err := e.store.Sync()
		e.mu.Unlock()
		if err != nil {
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

// Rows implements Reader from the row table, in the order of ids. It never
// fails.
func (e *Engine) Rows(ids []uint64, terms []string, fn func(i int, point []float64, terms []string)) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := uint64(e.store.NumObjects())
	for i, id := range ids {
		if id >= n || e.deleted[id] {
			continue
		}
		if terms != nil {
			terms = e.rows.Terms.Words(terms[:0], int(id), e.rows.Vocab)
		}
		fn(i, e.rows.Point(int(id)), terms)
	}
	return nil
}

// PrepareRead implements Reader: rlock's work, without holding the lock
// after it.
func (e *Engine) PrepareRead() error {
	if err := e.rlock(); err != nil {
		return err
	}
	e.mu.RUnlock()
	return nil
}

// queuedUnsynced reports whether id is a queued row while the store holds
// rows it has not synced.
func (e *Engine) queuedUnsynced(id uint64) bool {
	_, queued := slices.BinarySearch(e.run, id)
	return queued && e.store.Unsynced()
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

// applyDelete performs the deletion and returns the deleted object — it
// has to load the row to unindex it anyway, and the mutation observer wants
// the object's point and text without paying a second store read. A queued
// row leaves the run and the tree is not touched; a tree row is the tree's
// delete (core.IR2Tree.Delete).
func (e *Engine) applyDelete(id uint64) (objstore.Object, error) {
	if err := e.store.Sync(); err != nil {
		return objstore.Object{}, err
	}
	obj, err := e.store.GetByID(objstore.ID(id))
	if err != nil {
		return objstore.Object{}, err
	}
	if i, queued := slices.BinarySearch(e.run, id); queued {
		e.run = slices.Delete(e.run, i, i+1)
		e.deleted[id] = true
		e.live--
		return obj, nil
	}
	ok, err := e.tree.Delete(obj.Point, id)
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
// first — the paper's distance-first top-k spatial keyword query. Ties on
// the k-th distance go to the smallest object IDs (FirstK).
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
	out, err := FirstK(nil, it, k, nil)
	it.Close()
	return out, it.Stats(), err
}

// TopKRanked returns the k objects with the best combined
// relevance-and-proximity score — the paper's general top-k spatial keyword
// query (objects may contain only some keywords; tf-idf relevance is
// discounted by distance). Ties on the k-th score go to the smallest object
// IDs (FirstK).
func (e *Engine) TopKRanked(k int, point []float64, keywords ...string) ([]RankedResult, error) {
	it, err := e.searchRanked(nil, point, keywords)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	return FirstK(nil, it, k, nil)
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
		Objects:               e.live,
		IndexMB:               float64(e.idxDisk.SizeBytes()) / 1e6,
		ObjectFileMB:          float64(e.objDisk.SizeBytes()) / 1e6,
		TreeHeight:            e.tree.RTree().Height(),
		SignatureBytesByLevel: e.tree.RTree().AuxLens(),
		Vocabulary:            e.rows.Vocab.NumWords(),
	}
}
