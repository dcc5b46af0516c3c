// Package core implements the paper's primary contribution: the IR²-Tree
// (Information Retrieval R-Tree) and its Multi-level variant (MIR²-Tree),
// together with the search algorithms that answer top-k spatial keyword
// queries on them, and the R-Tree baseline algorithm they are evaluated
// against (Sections 4 and 5).
//
// An IR²-Tree is an R-Tree in which every entry additionally carries a
// superimposed-code signature of the text below it: an object's signature in
// the leaves, and the OR of the children's signatures in interior nodes.
// During an incremental nearest-neighbor traversal, a subtree whose
// signature does not cover the query's signature cannot contain an object
// with all the query keywords and is pruned wholesale — textual pruning
// tightly integrated with spatial pruning.
//
// The MIR²-Tree additionally sizes signatures per level (multi-level
// superimposed coding [CS89, DR83]): higher nodes cover more distinct words
// and get proportionally longer signatures, computed with the optimal-length
// rule [MC94], and a node's signature is derived from *all objects in its
// subtree* rather than from its children's signatures. That keeps high-level
// signatures sparse (fewer false positives) at the price of much more
// expensive maintenance.
//
// An IR²-Tree packed from a batch (InsertBatch into an empty tree) sizes its
// interior levels too, but from the words the batch actually puts under each
// node rather than from a corpus estimate, and keeps them up on later
// inserts by superimposition, reading no row (see packSizer).
package core

import (
	"bytes"
	"fmt"
	"math"
	"sync"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/nodecache"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// Options configures an IR²-Tree.
type Options struct {
	// LeafSignature is the signature scheme of leaf entries (the
	// experiments sweep its length: Figures 11 and 14). Required.
	LeafSignature sigfile.Config

	// Multilevel selects the MIR²-Tree: per-level optimal signature
	// lengths and node signatures recomputed from underlying objects.
	Multilevel bool

	// AvgWordsPerObject and VocabSize describe the corpus (Table 1
	// columns); the MIR²-Tree needs them to size each level's signatures.
	// Ignored for the uniform IR²-Tree.
	AvgWordsPerObject float64
	VocabSize         int

	// MaxEntries overrides the node capacity (0 derives it from the block
	// size, as in the paper).
	MaxEntries int

	// CacheNodes bounds the tree's decoded-node cache (see rtree.Config):
	// zero for the default capacity, negative to disable the cache.
	CacheNodes int

	// Analyzer is the text-analysis pipeline shared by indexing and
	// querying (tokenize, optional stopwords, optional Porter stemming).
	// Nil means plain tokenization, as in the paper's experiments.
	Analyzer *textutil.Analyzer
}

// IR2Tree is a disk-resident IR²-Tree or MIR²-Tree over an object store.
// Concurrent readers are safe; writers require external exclusion with
// readers (as in package rtree).
type IR2Tree struct {
	rt         *rtree.Tree
	store      *objstore.Store
	scheme     *sigScheme
	multilevel bool
	an         *textutil.Analyzer // nil = plain tokenization
	// rows is a served tree's row table (NewServed), which keeps the leaf
	// signatures and is keyed by the row IDs the leaves hold: nil for a
	// tree whose leaves store signatures and row pointers.
	rows *Rows
}

// sigScheme adapts signature maintenance to rtree.AuxScheme. For the
// uniform IR²-Tree every level shares one configuration and a node's
// signature is the superimposition of its entries' signatures; a packed
// tree's interior levels are sized from the data instead (see packSizer),
// and the tree records their lengths. For the MIR²-Tree each level has its
// own configuration and a node's signature is recomputed from the words of
// every object in its subtree.
type sigScheme struct {
	leaf       sigfile.Config
	multilevel bool
	fanout     int // the tree's node capacity, set once it is built
	avgWords   float64
	vocabSize  int

	// words resolves a leaf entry's reference to the object's distinct
	// words, reading the object store (and paying its I/O): by row ID in a
	// served tree, by row pointer in the paper's.
	words func(ref uint64) ([]string, error)

	mu       sync.Mutex
	cache    map[uint64][]string // bulk-build word cache (nil when disabled)
	deferred bool                // bulk build: skip subtree recomputation
	cfgMemo  map[int]sigfile.Config
}

// levelConfig returns the scheme's own signature configuration for entries
// stored at the given node level: the leaf's for the uniform IR²-Tree, the
// optimal-length rule's for the MIR²-Tree. A sized tree's recorded lengths
// override it (see IR2Tree.levelConfig).
func (s *sigScheme) levelConfig(level int) sigfile.Config {
	if !s.multilevel || level <= 0 {
		return s.leaf
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cfg, ok := s.cfgMemo[level]; ok {
		return cfg
	}
	// A node at this level covers about fanout^level objects, hence about
	// avgWords·fanout^level distinct words, capped by the corpus vocabulary.
	words := s.avgWords * math.Pow(float64(s.fanout), float64(level))
	d := s.vocabSize
	if s.vocabSize <= 0 || words < float64(s.vocabSize) {
		d = int(math.Ceil(words))
	}
	if d < 1 {
		d = 1
	}
	cfg := sigfile.Config{
		LengthBytes: sigfile.OptimalLengthBytes(d, s.leaf.BitsPerWord),
		BitsPerWord: s.leaf.BitsPerWord,
	}
	if cfg.LengthBytes < s.leaf.LengthBytes {
		cfg.LengthBytes = s.leaf.LengthBytes
	}
	if s.cfgMemo == nil {
		s.cfgMemo = make(map[int]sigfile.Config)
	}
	s.cfgMemo[level] = cfg
	return cfg
}

// EntryAuxLen implements rtree.AuxScheme.
func (s *sigScheme) EntryAuxLen(level int) int {
	return s.levelConfig(level).LengthBytes
}

// NodeAux implements rtree.AuxScheme: the signature stored for node n in its
// parent.
func (s *sigScheme) NodeAux(t rtree.NodeReader, n *rtree.Node) ([]byte, error) {
	length := t.AuxLen(n.Level() + 1)
	if !s.multilevel {
		// IR²-Tree: superimpose the node's entry signatures (the tree
		// calls NodeAux only where they have the parent's length).
		sig := make(sigfile.Signature, length)
		for i := 0; i < n.NumEntries(); i++ {
			_, _, aux := n.Entry(i)
			// The entry aux was decoded from disk; a length mismatch means
			// a corrupt node, not a programming error, so use the checked
			// variant and attribute the failure to the node's block.
			if err := sigfile.SuperimposeChecked(sig, sigfile.Signature(aux)); err != nil {
				return nil, fmt.Errorf("core: node %d entry %d: %w", n.ID(), i, err)
			}
		}
		return sig, nil
	}
	s.mu.Lock()
	deferred := s.deferred
	s.mu.Unlock()
	if deferred {
		// Bulk build: leave interior signatures zero; RebuildAux fills them
		// in one bottom-up pass.
		return make([]byte, length), nil
	}
	// MIR²-Tree: recompute from every object in the subtree. This walks
	// (and pays the I/O for) the whole subtree plus the referenced objects
	// — the maintenance cost the paper warns about.
	return s.CoverAux(t, n, length)
}

// CoverAux implements rtree.Coverer: the signature, at the given length, of
// every word of every object under n, read from the object store.
func (s *sigScheme) CoverAux(t rtree.NodeReader, n *rtree.Node, length int) ([]byte, error) {
	refs, err := t.SubtreeObjectRefs(n)
	if err != nil {
		return nil, err
	}
	cfg := sigfile.Config{LengthBytes: length, BitsPerWord: s.leaf.BitsPerWord}
	sig := cfg.New()
	for _, ref := range refs {
		words, err := s.objectWords(ref)
		if err != nil {
			return nil, err
		}
		for _, w := range words {
			cfg.SetWord(sig, w)
		}
	}
	return sig, nil
}

// LiftObject implements rtree.ObjectLifter: an orphaned object entry is
// lifted from its row's words, read by pointer the first time a sized level
// asks. A row that cannot be read lifts to all ones.
func (s *sigScheme) LiftObject(ref uint64) rtree.Lift {
	var words []string
	var err error
	read := false
	return func(length int) []byte {
		if !read {
			words, err = s.objectWords(ref)
			read = true
		}
		if err != nil {
			return bytes.Repeat([]byte{0xff}, length)
		}
		return sigfile.Config{LengthBytes: length, BitsPerWord: s.leaf.BitsPerWord}.DocSignature(words)
	}
}

// remember seeds the bulk-build word cache with an object's words, so the
// deferred pass never re-reads the object file; a no-op when it is disabled.
func (s *sigScheme) remember(ref uint64, words []string) {
	s.mu.Lock()
	if s.cache != nil {
		s.cache[ref] = words
	}
	s.mu.Unlock()
}

// objectWords returns an object's distinct words, from the bulk-build cache
// when enabled.
func (s *sigScheme) objectWords(ref uint64) ([]string, error) {
	s.mu.Lock()
	if s.cache != nil {
		if w, ok := s.cache[ref]; ok {
			s.mu.Unlock()
			return w, nil
		}
	}
	s.mu.Unlock()
	w, err := s.words(ref)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.cache != nil {
		s.cache[ref] = w
	}
	s.mu.Unlock()
	return w, nil
}

// levelConfig returns the signature configuration of the entries at the
// given level: the length the tree holds them at (recorded by a sized pack,
// else the scheme's), with the leaf's bits per word. It reads no lock: the
// recorded lengths change only while the tree is empty.
func (x *IR2Tree) levelConfig(level int) sigfile.Config {
	return sigfile.Config{LengthBytes: x.rt.AuxLen(level), BitsPerWord: x.scheme.leaf.BitsPerWord}
}

// New creates an empty IR²-Tree (or MIR²-Tree) whose nodes live on dev and
// whose objects live in store. Its leaves store each object's signature, as
// in the paper.
func New(dev storage.Device, store *objstore.Store, opts Options) (*IR2Tree, error) {
	return build(dev, store, opts, nil, storage.NilBlock)
}

// NewServed creates an empty IR²-Tree like New whose leaves store no
// signature and name each row by its ID: rows, the engine's row table,
// keeps each row's signature (Rows.Sigs), and a leaf entry is a row ID and
// a point, so a full leaf of 4 KB blocks holds 170 entries in one block
// where the paper's holds 102 in one block per 4 KB of their signatures
// (rtree.Tree.Capacity), and the leaves' signature columns are built from
// the table when a leaf is read. Every mask, traversal and answer is the
// one the signatures on disk would give. rows.Leaf must be
// opts.LeafSignature, and rows must hold every row before the tree takes
// it. Every stream (Search, SearchArea, SearchWithin, SearchRanked) runs
// on a served tree only, and the paper's TopK on New's trees only.
func NewServed(dev storage.Device, store *objstore.Store, opts Options, rows *Rows) (*IR2Tree, error) {
	return build(dev, store, opts, rows, storage.NilBlock)
}

// build is New (rows nil), NewServed, and Open of the tree checkpointed in
// stateBlock when it is not NilBlock.
func build(dev storage.Device, store *objstore.Store, opts Options, rows *Rows, stateBlock storage.BlockID) (*IR2Tree, error) {
	if err := opts.LeafSignature.Validate(0); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opts.Multilevel && opts.AvgWordsPerObject <= 0 {
		return nil, fmt.Errorf("core: MIR²-Tree requires AvgWordsPerObject > 0")
	}
	if rows != nil && rows.Leaf != opts.LeafSignature {
		return nil, fmt.Errorf("core: the row table keeps %+v leaf signatures, the tree's are %+v", rows.Leaf, opts.LeafSignature)
	}
	get := func(ref uint64) (objstore.Object, error) { return store.Get(objstore.Ptr(ref)) }
	if rows != nil {
		get = func(ref uint64) (objstore.Object, error) { return store.GetByID(objstore.ID(ref)) }
	}
	scheme := &sigScheme{
		leaf:       opts.LeafSignature,
		multilevel: opts.Multilevel,
		avgWords:   opts.AvgWordsPerObject,
		vocabSize:  opts.VocabSize,
		words: func(ref uint64) ([]string, error) {
			obj, err := get(ref)
			if err != nil {
				return nil, err
			}
			return opts.Analyzer.Unique(obj.Text), nil
		},
	}
	cfg := rtree.Config{
		MaxEntries: opts.MaxEntries,
		Scheme:     scheme,
		CacheNodes: opts.CacheNodes,
	}
	if rows != nil {
		cfg.Scheme = rowScheme{sigScheme: scheme, rows: rows}
	}
	rt, err := rtree.New(dev, cfg)
	if err != nil {
		return nil, err
	}
	// A MIR²-Tree's levels are sized by the fanout, which the fingerprint
	// Open checks covers.
	scheme.fanout = rt.MaxEntries()
	if stateBlock != storage.NilBlock {
		if rt, err = rtree.Open(dev, cfg, stateBlock); err != nil {
			return nil, err
		}
	}
	return &IR2Tree{rt: rt, store: store, scheme: scheme, multilevel: opts.Multilevel, an: opts.Analyzer, rows: rows}, nil
}

// rowScheme is a served tree's scheme (NewServed): sigScheme's, and the
// leaf signatures, which the row table keeps (rtree.LeafKeeper).
type rowScheme struct {
	*sigScheme
	rows *Rows
}

// LeafAux implements rtree.LeafKeeper: the signature the row table keeps
// for row ref.
func (s rowScheme) LeafAux(ref uint64) ([]byte, bool) { return s.rows.Sig(ref) }

// RTree exposes the underlying tree (for statistics and invariant checks).
func (x *IR2Tree) RTree() *rtree.Tree { return x.rt }

// NodeCacheStats reports the decoded-node cache counters of the underlying
// tree (all zero when the cache is disabled).
func (x *IR2Tree) NodeCacheStats() nodecache.Stats { return x.rt.CacheStats() }

// SizeBytes returns the tree's on-disk footprint (excluding the object file).
func (x *IR2Tree) SizeBytes() int64 { return x.rt.Device().SizeBytes() }

// SizeMB returns the footprint in megabytes (10^6 bytes).
func (x *IR2Tree) SizeMB() float64 { return float64(x.SizeBytes()) / 1e6 }

// Insert indexes an object (paper Figure 5): its leaf signature is the
// superimposition of its distinct words' signatures (a served tree's row
// table holds it, and the leaf does not), and AdjustTree propagates new
// signature bits to every ancestor. For a MIR²-Tree the
// ancestor updates recompute signatures from all underlying objects, which
// is expensive by design. A level a pack sized superimposes the object's
// words at its own length instead, so the insert reads no other object.
func (x *IR2Tree) Insert(obj objstore.Object, ptr objstore.Ptr) error {
	return x.insert(Entry{Ref: x.ref(obj.ID, ptr), Point: obj.Point, Words: x.an.Unique(obj.Text)})
}

// ref returns the reference a leaf entry holds for the object with the
// given ID and row pointer: its ID in a served tree, whose row table is
// keyed by it, and its pointer in the paper's, whose leaves point into the
// object file.
func (x *IR2Tree) ref(id objstore.ID, ptr objstore.Ptr) uint64 {
	if x.rows != nil {
		return uint64(id)
	}
	return uint64(ptr)
}

// insert is Insert of an object whose words are already known.
func (x *IR2Tree) insert(e Entry) error {
	k := x.scheme.leaf.BitsPerWord
	lift := func(length int) []byte {
		return sigfile.Config{LengthBytes: length, BitsPerWord: k}.DocSignature(e.Words)
	}
	return x.rt.Insert(e.Ref, geo.PointRect(e.Point), x.leafSignature(e), lift)
}

// leafSignature returns e's leaf signature, or nil in a served tree, whose
// row table keeps it (the tree looks it up there).
func (x *IR2Tree) leafSignature(e Entry) []byte {
	if x.rows != nil {
		return nil
	}
	return x.scheme.leaf.DocSignature(e.Words)
}

// Delete removes the object at point whose leaf entry holds ref (paper
// Figure 6): its ID in a served tree, its row pointer in the paper's. It
// returns false if the object was not indexed.
func (x *IR2Tree) Delete(point geo.Point, ref uint64) (bool, error) {
	return x.rt.Delete(ref, geo.PointRect(point))
}

// Build loads every object of the store into the tree by repeated Insert,
// the paper's construction (the experiments' trees are built this way).
func (x *IR2Tree) Build() error {
	return x.deferSignatures(func() error {
		return x.store.Scan(func(obj objstore.Object, ptr objstore.Ptr) error {
			e := Entry{Ref: x.ref(obj.ID, ptr), Point: obj.Point, Words: x.an.Unique(obj.Text)}
			x.scheme.remember(e.Ref, e.Words)
			return x.insert(e)
		})
	})
}

// Entry is one object of an InsertBatch: the reference its leaf entry
// holds (its row ID in a served tree, its row pointer in the paper's), its
// point, and its distinct pipeline words, which the caller has at hand from
// analyzing the row on its way in, so indexing reads no row back.
type Entry struct {
	Ref   uint64
	Point geo.Point
	Words []string
}

// InsertBatch indexes every entry of batch. Into an empty tree it packs the
// whole batch with Sort-Tile-Recursive bulk loading (rtree.BulkLoad, an
// extension over the paper's insert-based construction): nodes come out
// full and barely overlapping, in one pass per level, where one Guttman
// insert per object leaves leaves about two thirds full. Leaf signatures are
// the ones Insert stores, none in a served tree. The IR²-Tree's interior
// levels are sized from the batch's words (see packSizer); the MIR²-Tree's
// keep the optimal-length rule and its recomputed signatures. Answers do
// not depend on the path.
// Into a non-empty tree each entry is inserted in order. It returns how
// many entries the tree took: all of them, or on an error the ones before
// the entry that failed (none, when a pack fails).
func (x *IR2Tree) InsertBatch(batch []Entry) (int, error) {
	if x.rt.Height() > 0 {
		for i, e := range batch {
			if err := x.insert(e); err != nil {
				return i, err
			}
		}
		return len(batch), nil
	}
	if len(batch) == 0 {
		return 0, nil
	}
	err := x.deferSignatures(func() error {
		leaf := x.scheme.leaf
		entries := make([]rtree.BulkEntry, len(batch))
		var sizer rtree.LevelSizer
		ps := newPackSizer(leaf, x.rt)
		if !x.multilevel {
			sizer = ps
		}
		for i, e := range batch {
			x.scheme.remember(e.Ref, e.Words)
			if sizer != nil {
				ps.addObject(e.Ref, e.Words)
			}
			entries[i] = rtree.BulkEntry{Ref: e.Ref, Rect: geo.PointRect(e.Point), Aux: x.leafSignature(e)}
		}
		return x.rt.BulkLoad(entries, sizer)
	})
	if err != nil {
		return 0, err
	}
	return len(batch), nil
}

// deferSignatures runs a whole-tree construction. For a MIR²-Tree it leaves
// interior signatures zero while build runs, caching the words build
// remembers, and then fills every signature in one bottom-up pass — without
// this a construction would re-walk a subtree per insert and be quadratic. A
// root-only tree has no interior signature to fill. The uniform IR²-Tree
// just runs build.
func (x *IR2Tree) deferSignatures(build func() error) error {
	if !x.multilevel {
		return build()
	}
	s := x.scheme
	s.mu.Lock()
	s.deferred = true
	s.cache = make(map[uint64][]string)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.deferred = false
		s.cache = nil
		s.mu.Unlock()
	}()
	if err := build(); err != nil {
		return err
	}
	s.mu.Lock()
	s.deferred = false
	s.mu.Unlock()
	if x.rt.Height() <= 1 {
		return nil
	}
	return x.rt.RebuildAux()
}
