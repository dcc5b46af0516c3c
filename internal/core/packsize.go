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
	// and a full 4 KB-block interior node of 102 entries spans 26 blocks
	// (a sized level is never a leaf level).
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
// with probability below saturatedAbsence. A level packed from a batch too
// small to fill its minimum fill of nodes (see stub) — a stub root — keeps
// the length of the level below: the inserts that outgrow it split its
// children, and a sized entry can only be widened by them (its words are
// not at hand to tighten it), so it would cost bytes and soon prune nothing.
// Every other level gets levelSignatureBytes of its largest entry's word
// count.
type packSizer struct {
	k       int
	rt      *rtree.Tree // the tree packed
	objects int         // the objects of the batch
	prev    int         // the length of the level below the next one sized
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
		k:     leaf.BitsPerWord,
		rt:    rt,
		prev:  leaf.LengthBytes,
		ids:   make(map[string]int32),
		objs:  make(map[uint64][]int32),
		nodes: make(map[storage.BlockID][]int32),
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
	p.objects++
}

// stub reports whether a level is a stub root: the batch holds fewer
// objects than its minimum fill of nodes would cover, were every level
// below packed full at the interior capacity M (MinFill(level)·M^level:
// 4,080 objects for level 1 at 4 KB blocks). In objects rather than the
// level's entries, so that a leaf holding more than M entries (a point
// leaf's 170) does not raise it: below the level a batch packs fewer
// nodes, but it holds the same words.
func (p *packSizer) stub(level int) bool {
	need := p.rt.MinFill(level)
	for i := 0; i < level && need <= p.objects; i++ {
		need *= p.rt.MaxEntries()
	}
	return p.objects < need
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
	case !p.stub(level):
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
