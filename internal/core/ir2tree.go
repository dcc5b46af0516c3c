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
package core

import (
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

	// Dim is the spatial dimensionality. Zero means 2.
	Dim int

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
}

// sigScheme adapts signature maintenance to rtree.AuxScheme. For the
// uniform IR²-Tree every level shares one configuration and a node's
// signature is the superimposition of its entries' signatures. For the
// MIR²-Tree each level has its own configuration and a node's signature is
// recomputed from the words of every object in its subtree.
type sigScheme struct {
	leaf       sigfile.Config
	multilevel bool
	fanout     int
	avgWords   float64
	vocabSize  int

	// words resolves an object reference to its distinct words, reading the
	// object store (and paying its I/O).
	words func(ref uint64) ([]string, error)

	mu       sync.Mutex
	cache    map[uint64][]string // bulk-build word cache (nil when disabled)
	deferred bool                // bulk build: skip subtree recomputation
	cfgMemo  map[int]sigfile.Config
}

// levelConfig returns the signature configuration for entries stored at the
// given node level.
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
	parentLevel := n.Level() + 1
	cfg := s.levelConfig(parentLevel)
	if !s.multilevel {
		// IR²-Tree: superimpose the node's entry signatures (same length
		// at every level).
		sig := cfg.New()
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
		return cfg.New(), nil
	}
	// MIR²-Tree: recompute from every object in the subtree. This walks
	// (and pays the I/O for) the whole subtree plus the referenced objects
	// — the maintenance cost the paper warns about.
	refs, err := t.SubtreeObjectRefs(n)
	if err != nil {
		return nil, err
	}
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

// querySignature builds the signature of a keyword set at the given level's
// configuration — the W of IR2TopK line 16, per level.
func (s *sigScheme) querySignature(level int, keywords []string) sigfile.Signature {
	return s.levelConfig(level).DocSignature(keywords)
}

// wordSignature builds a single keyword's signature at the given level —
// the per-keyword W_i of the general algorithm.
func (s *sigScheme) wordSignature(level int, word string) sigfile.Signature {
	return s.levelConfig(level).WordSignature(word)
}

// New creates an empty IR²-Tree (or MIR²-Tree) whose nodes live on dev and
// whose objects live in store.
func New(dev storage.Device, store *objstore.Store, opts Options) (*IR2Tree, error) {
	if err := opts.LeafSignature.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	dim := opts.Dim
	if dim == 0 {
		dim = 2
	}
	fanout := opts.MaxEntries
	if fanout == 0 {
		// Must match rtree.New's derivation (payload-free entry size).
		fanout = (dev.BlockSize() - 8) / (8 + dim*16)
	}
	if opts.Multilevel && opts.AvgWordsPerObject <= 0 {
		return nil, fmt.Errorf("core: MIR²-Tree requires AvgWordsPerObject > 0")
	}
	scheme := &sigScheme{
		leaf:       opts.LeafSignature,
		multilevel: opts.Multilevel,
		fanout:     fanout,
		avgWords:   opts.AvgWordsPerObject,
		vocabSize:  opts.VocabSize,
		words: func(ref uint64) ([]string, error) {
			obj, err := store.Get(objstore.Ptr(ref))
			if err != nil {
				return nil, err
			}
			return opts.Analyzer.Unique(obj.Text), nil
		},
	}
	rt, err := rtree.New(dev, rtree.Config{
		Dim:        dim,
		MaxEntries: opts.MaxEntries,
		Scheme:     scheme,
		CacheNodes: opts.CacheNodes,
	})
	if err != nil {
		return nil, err
	}
	return &IR2Tree{rt: rt, store: store, scheme: scheme, multilevel: opts.Multilevel, an: opts.Analyzer}, nil
}

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
// superimposition of its distinct words' signatures, and AdjustTree
// propagates new signature bits to every ancestor. For a MIR²-Tree the
// ancestor updates recompute signatures from all underlying objects, which
// is expensive by design.
func (x *IR2Tree) Insert(obj objstore.Object, ptr objstore.Ptr) error {
	words := x.an.Unique(obj.Text)
	sig := x.scheme.levelConfig(0).DocSignature(words)
	return x.rt.Insert(uint64(ptr), geo.PointRect(obj.Point), sig)
}

// Delete removes an object (paper Figure 6). It returns false if the object
// was not indexed.
func (x *IR2Tree) Delete(point geo.Point, ptr objstore.Ptr) (bool, error) {
	return x.rt.Delete(uint64(ptr), geo.PointRect(point))
}

// Build bulk-loads every object of the store into the tree. For a MIR²-Tree
// it defers interior signature computation during the inserts and fills all
// signatures in one bottom-up pass at the end, caching object words in
// memory — without this, construction would re-walk subtrees on every
// insert and be quadratic.
func (x *IR2Tree) Build() error {
	if x.multilevel {
		x.scheme.mu.Lock()
		x.scheme.deferred = true
		x.scheme.cache = make(map[uint64][]string)
		x.scheme.mu.Unlock()
		defer func() {
			x.scheme.mu.Lock()
			x.scheme.deferred = false
			x.scheme.cache = nil
			x.scheme.mu.Unlock()
		}()
	}
	err := x.store.Scan(func(obj objstore.Object, ptr objstore.Ptr) error {
		if x.multilevel {
			// Seed the cache so RebuildAux never re-reads the object file.
			x.scheme.mu.Lock()
			x.scheme.cache[uint64(ptr)] = x.an.Unique(obj.Text)
			x.scheme.mu.Unlock()
		}
		return x.Insert(obj, ptr)
	})
	if err != nil {
		return err
	}
	if x.multilevel {
		x.scheme.mu.Lock()
		x.scheme.deferred = false
		x.scheme.mu.Unlock()
		return x.rt.RebuildAux()
	}
	return nil
}
