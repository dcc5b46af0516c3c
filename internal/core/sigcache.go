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
// every entry. sigs may start as reused storage cut to length 0: a level's
// slice and each signature's words are rebuilt in place, so a warm query
// allocates none of them.
type levelWordSigs struct {
	x     *IR2Tree
	words []string
	sigs  [][]sigfile.Sig64 // by level; a level not yet built holds fewer than len(words)
}

func (c *levelWordSigs) at(level int) []sigfile.Sig64 {
	for level >= len(c.sigs) {
		if n := len(c.sigs); n < cap(c.sigs) {
			c.sigs = c.sigs[:n+1]
			c.sigs[n] = c.sigs[n][:0]
		} else {
			c.sigs = append(c.sigs, nil)
		}
	}
	if sigs := c.sigs[level]; len(sigs) < len(c.words) {
		cfg := c.x.levelConfig(level)
		sigs = sigs[:0]
		for _, w := range c.words {
			var prev sigfile.Sig64
			if n := len(sigs); n < cap(sigs) {
				prev = sigs[:n+1][n]
			}
			sigs = append(sigs, cfg.WordSig64(prev, w))
		}
		c.sigs[level] = sigs
	}
	return c.sigs[level]
}
