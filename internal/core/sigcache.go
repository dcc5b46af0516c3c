package core

import "spatialkeyword/internal/sigfile"

// levelSigs lazily caches the conjunctive query signature per tree level in
// word-at-a-time form: a slice indexed by level (tree heights are tiny)
// holding Sig64 views that match raw aux payloads without allocating. The
// distance-first, area and range traversals look it up once per expanded
// node.
type levelSigs struct {
	x    *IR2Tree
	kws  []string
	sigs []sigfile.Sig64
	have []bool
}

// at returns the query signature at the given level, or nil at a level
// whose entries carry no signature; its shape is the one rtree.Seek takes.
func (c *levelSigs) at(level int) *sigfile.Sig64 {
	for level >= len(c.sigs) {
		c.sigs = append(c.sigs, sigfile.Sig64{})
		c.have = append(c.have, false)
	}
	if !c.have[level] {
		c.sigs[level] = sigfile.MakeSig64(c.x.levelConfig(level).DocSignature(c.kws))
		c.have[level] = true
	}
	if c.sigs[level].Len() == 0 {
		return nil
	}
	return &c.sigs[level]
}

// levelWordSigs is the per-keyword variant for the general ranked search:
// each level caches one Sig64 per query keyword (W_i = Signature(w_i)). At a
// level with no signature they are empty, which MatchMask matches with
// every entry.
type levelWordSigs struct {
	x     *IR2Tree
	words []string
	sigs  [][]sigfile.Sig64
}

func (c *levelWordSigs) at(level int) []sigfile.Sig64 {
	for level >= len(c.sigs) {
		c.sigs = append(c.sigs, nil)
	}
	if c.sigs[level] == nil {
		cfg := c.x.levelConfig(level)
		sigs := make([]sigfile.Sig64, len(c.words))
		for i, w := range c.words {
			sigs[i] = sigfile.MakeSig64(cfg.WordSignature(w))
		}
		c.sigs[level] = sigs
	}
	return c.sigs[level]
}
