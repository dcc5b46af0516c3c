package core

import (
	"math"

	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
)

// The sizing rule of a packed IR²-Tree's interior levels. It has no options:
// its inputs are the batch being packed, and these constants.
const (
	// saturatedAbsence: a level whose entries miss a query word less often
	// than this gets no signature. The chance is weighted by document
	// frequency, the way query keywords are drawn from the data: a word
	// that is in every entry of a level cannot be pruned by it, at any
	// length.
	saturatedAbsence = 1.0 / 16
	// levelFalsePositive is the chance that a word absent from an entry
	// passes a sized level's signature, at the level's largest entry.
	levelFalsePositive = 1.0 / 4
	// maxLevelSignatureBytes bounds a sized level's signature, so that a
	// pathological batch cannot build megabyte nodes: at the bound an
	// entry of up to 2,515 words (k = 4) still meets levelFalsePositive,
	// and a full 4 KB-block node of 102 entries spans 26 blocks.
	maxLevelSignatureBytes = 1024
)

// levelSignatureBytes returns the shortest signature, in bytes, at which a
// word absent from an entry of d distinct words passes with probability at
// most levelFalsePositive: with k bits per word, (1 − e^(−k·d/m))^k ≤ p holds
// from m = k·d / −ln(1 − p^(1/k)) bits.
func levelSignatureBytes(d, k int) int {
	bits := math.Ceil(float64(k*d) / -math.Log(1-math.Pow(levelFalsePositive, 1/float64(k))))
	return min(max(int(math.Ceil(bits/8)), 1), maxLevelSignatureBytes)
}

// packSizer is the rtree.LevelSizer InsertBatch packs an IR²-Tree with. It
// knows each object's distinct words as IDs over the batch's words, and
// folds them up the levels as BulkLoad packs them, so it sizes each level
// and builds its signatures without reading a row.
//
// A level gets no signature (0 bytes, so it always matches) when its
// entries already hold almost every word the batch's objects hold: when a
// word drawn by document frequency is missing from an entry drawn uniformly
// with probability below saturatedAbsence. A level of fewer entries than a
// node's minimum fill — a stub root, which only a small batch packs — keeps
// the length of the level below: the inserts that outgrow it split its
// children, and a sized entry can only be widened by them (its words are
// not at hand to tighten it), so it would cost bytes and soon prune nothing.
// Every other level gets levelSignatureBytes of its largest entry's word
// count.
type packSizer struct {
	k       int
	minFill int // the tree's minimum entries per node
	prev    int // the length of the level below the next one sized
	ids     map[string]int32
	hashes  []uint64 // sigfile.Hash of the batch's distinct words, by ID
	df      []int    // objects holding each word
	total   float64  // sum of df
	// below holds the word IDs under each object (by reference) and, once
	// a level is packed, under each of its nodes (by block); a set is
	// dropped when the level above folds it in.
	objs  map[uint64][]int32
	nodes map[storage.BlockID][]int32
	seen  []uint32 // per word ID, the fold that last took it
	stamp uint32
}

// newPackSizer returns the sizer of a pack into tree rt with leaf
// signatures leaf.
func newPackSizer(leaf sigfile.Config, rt *rtree.Tree) *packSizer {
	return &packSizer{
		k:       leaf.BitsPerWord,
		minFill: rt.MinEntries(),
		prev:    leaf.LengthBytes,
		ids:     make(map[string]int32),
		objs:    make(map[uint64][]int32),
		nodes:   make(map[storage.BlockID][]int32),
	}
}

// addObject records the distinct words of the object at ref.
func (p *packSizer) addObject(ref uint64, words []string) {
	set := make([]int32, len(words))
	for i, w := range words {
		id, ok := p.ids[w]
		if !ok {
			id = int32(len(p.hashes))
			p.ids[w] = id
			p.hashes = append(p.hashes, sigfile.Hash(w))
			p.df = append(p.df, 0)
		}
		p.df[id]++
		set[i] = id
	}
	p.total += float64(len(words))
	p.objs[ref] = set
}

// SizeLevel implements rtree.LevelSizer.
func (p *packSizer) SizeLevel(level int, nodes []*rtree.Node) (int, error) {
	if len(p.seen) < len(p.hashes) {
		p.seen = make([]uint32, len(p.hashes))
	}
	var present float64
	dmax := 0
	for _, n := range nodes {
		set := p.fold(n)
		p.nodes[n.ID()] = set
		dmax = max(dmax, len(set))
		for _, id := range set {
			present += float64(p.df[id])
		}
	}
	switch {
	case p.total == 0 || 1-present/(float64(len(nodes))*p.total) < saturatedAbsence:
		p.prev = 0
	case len(nodes) >= p.minFill:
		p.prev = levelSignatureBytes(dmax, p.k)
	}
	return p.prev, nil
}

// fold returns the distinct word IDs under n, the union of its entries'
// sets, and drops those.
func (p *packSizer) fold(n *rtree.Node) []int32 {
	p.stamp++
	var set []int32
	for i := 0; i < n.NumEntries(); i++ {
		ptr, _, _ := n.Entry(i)
		var sub []int32
		if n.Level() == 0 {
			sub = p.objs[ptr]
			delete(p.objs, ptr)
		} else {
			sub = p.nodes[storage.BlockID(ptr)]
			delete(p.nodes, storage.BlockID(ptr))
		}
		for _, id := range sub {
			if p.seen[id] != p.stamp {
				p.seen[id] = p.stamp
				set = append(set, id)
			}
		}
	}
	return set
}

// CoverAux implements rtree.Coverer for the level being packed: the
// signature of the words SizeLevel folded under n, from the hashes addObject
// took once per word.
func (p *packSizer) CoverAux(_ rtree.NodeReader, n *rtree.Node, length int) ([]byte, error) {
	cfg := sigfile.Config{LengthBytes: length, BitsPerWord: p.k}
	sig := cfg.New()
	for _, id := range p.nodes[n.ID()] {
		cfg.SetHash(sig, p.hashes[id])
	}
	return sig, nil
}
