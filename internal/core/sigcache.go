package core

import "spatialkeyword/internal/sigfile"

// levelSigs lazily caches the conjunctive query signature per tree level in
// word-at-a-time form: a slice indexed by level (tree heights are tiny)
// holding Sig64 views that match raw aux payloads without allocating. The
// distance-first, area and range traversals look it up once per expanded
// node. The keywords come as their signature hashes (sigfile.Hash).
type levelSigs struct {
	x      *IR2Tree
	hashes []uint64
	sigs   []sigfile.Sig64
	have   []bool
}

// at returns the query signature at the given level, or nil at a level
// whose entries carry no signature; its shape is the one rtree.Seek takes.
func (c *levelSigs) at(level int) *sigfile.Sig64 {
	for level >= len(c.sigs) {
		c.sigs = append(c.sigs, sigfile.Sig64{})
		c.have = append(c.have, false)
	}
	if !c.have[level] {
		cfg := c.x.levelConfig(level)
		sig := cfg.New()
		for _, h := range c.hashes {
			cfg.SetHash(sig, h)
		}
		c.sigs[level] = sigfile.MakeSig64(sig)
		c.have[level] = true
	}
	if c.sigs[level].Len() == 0 {
		return nil
	}
	return &c.sigs[level]
}

// wordHashes returns sigfile.Hash of each word: a query's keyword hashes
// where no vocabulary holds them (the paper's arms).
func wordHashes(words []string) []uint64 {
	hs := make([]uint64, len(words))
	for i, w := range words {
		hs[i] = sigfile.Hash(w)
	}
	return hs
}

// levelWordSigs is the per-keyword variant for the general ranked search:
// each level caches one Sig64 per query keyword (W_i = Signature(w_i)),
// built from the keywords' signature hashes. At a level with no signature
// they are empty, which MatchMask matches with every entry. sigs may start
// as reused storage cut to length 0: a level's slice and each signature's
// words are rebuilt in place, so a warm query allocates none of them.
type levelWordSigs struct {
	x      *IR2Tree
	hashes []uint64
	sigs   [][]sigfile.Sig64 // by level; a level not yet built holds fewer than len(hashes)
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
	if sigs := c.sigs[level]; len(sigs) < len(c.hashes) {
		cfg := c.x.levelConfig(level)
		sigs = sigs[:0]
		for _, h := range c.hashes {
			var prev sigfile.Sig64
			if n := len(sigs); n < cap(sigs) {
				prev = sigs[:n+1][n]
			}
			sigs = append(sigs, cfg.HashSig64(prev, h))
		}
		c.sigs[level] = sigs
	}
	return c.sigs[level]
}
