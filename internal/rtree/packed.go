// Packed node images and the pinned decoded-node cache — the only
// representation a reader of the tree sees.
//
// loadNode decodes a node into pointer-rich structs: a Node, an entry slice,
// two geo.Points and an aux copy per entry — for a 102-entry node that is
// several hundred allocations. That is what the mutation path and the
// invariant checker work on. A PackedNode instead pins the node's trimmed
// on-disk image (exactly the bytes storeNode wrote) and serves pointers,
// rectangles, and payloads by offset arithmetic straight off that buffer.
// Beside the image it keeps the payloads' bit-sliced signature columns, so a
// node tests every entry against a query signature with one AND per query
// bit (MatchMask). The image and the columns are one allocation each,
// whatever the node's entry count.
// Decoded images live in a nodecache.Cache keyed by the node's first
// BlockID, shared by every query on the tree; a tree built with a negative
// Config.CacheNodes has no cache and pins each image for one visit.
//
// Every read of a node, cold or cached, covers the node's own run: the
// blocks its header records (see nodeHeaderSize), which for a node BulkLoad
// packed are the blocks its header and entries fill and for any other node
// its capacity run. A hit is charged, not re-read. Every image carries the
// device's write sequence (storage.Device.WriteSeq) taken before its blocks
// were read, and its run, and a hit hands both to the device's ChargeRun:
// if no block of the run has been written since, the device charges exactly
// the random/sequential accesses a cold load of the run would — so the
// counters that feed the benchmark cost model are bit-identical with and
// without the cache — runs the fault hook, and moves no bytes. If a block
// was written since, or the device declines (a ChecksumDisk, whose promise
// is a CRC on every read; a FaultDevice whose plan arms a read fault), the
// hit falls back to verifying: ReadRunInto over the same run into pooled
// scratch, compared with the pinned image and reparsed on any difference
// (re-read from its first block when the header names another run).
//
// Cache correctness therefore does not rest on invalidation alone. The
// mutation path invalidates rewritten and freed nodes (storeNode/freeNode),
// so a hit normally finds its blocks unstamped; but bytes written behind the
// cache's back through the device stamp the blocks they change, and the next
// hit re-reads and reparses instead of serving stale entries. The header
// (level + count) occupies the image's first bytes, so any structural change
// to a node changes the prefix the comparison sees. What a charged hit cannot
// see is a change that bypassed the device, such as another process writing
// the index file; see DESIGN.md.
package rtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/nodecache"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
)

// PackedNode is a decoded node pinned in its serialized layout: one buffer
// holding exactly the bytes storeNode encodes (header + count entries), plus
// the header fields and per-level sizes needed to address entries in place,
// and the payloads' signature columns built from that buffer.
// PackedNodes are immutable once published to the cache; accessors that
// return slices alias the buffer and must not be written through or retained
// past the next tree mutation.
type PackedNode struct {
	id     storage.BlockID
	level  int
	count  int
	run    int // blocks of the node's run, from id on
	es     int // serialized entry size at this level
	auxLen int
	buf    []byte // trimmed image: nodeHeaderSize + count*es bytes
	// cols holds the payloads bit-sliced: for payload bit b, the
	// maskWords(count) words at cols[b*nw:] have bit i set when entry i's
	// payload has bit b set. Memory only; nil when auxLen or count is 0.
	cols []uint64
	seq  uint64 // device write sequence taken before buf was read
}

// maskWords is the number of words a mask of n entries takes, one bit each.
func maskWords(n int) int { return (n + 63) / 64 }

// ID returns the node's first block ID.
func (p *PackedNode) ID() storage.BlockID { return p.id }

// Level returns the node's level; 0 is the leaf level.
func (p *PackedNode) Level() int { return p.level }

// NumEntries returns the number of entries in the node.
func (p *PackedNode) NumEntries() int { return p.count }

// Bytes returns the node's trimmed serialized image. Callers must not
// modify it.
func (p *PackedNode) Bytes() []byte { return p.buf }

// entryOff returns the byte offset of entry i in the image.
func (p *PackedNode) entryOff(i int) int { return nodeHeaderSize + i*p.es }

// EntryPtr returns entry i's pointer: an object reference in leaves, a
// child node block in interior nodes.
//
//skvet:hotpath
func (p *PackedNode) EntryPtr(i int) uint64 {
	return binary.LittleEndian.Uint64(p.buf[p.entryOff(i):])
}

// EntryRectInto decodes entry i's MBR into the caller-provided corner
// points (each of length geo.Dims) and returns a Rect built from them. The
// caller owns the backing arrays, so a traversal can reuse one pair of
// points for every entry it scores.
//
//skvet:hotpath
func (p *PackedNode) EntryRectInto(i int, lo, hi geo.Point) geo.Rect {
	off := p.entryOff(i) + 8
	for d := 0; d < geo.Dims; d++ {
		lo[d] = math.Float64frombits(binary.LittleEndian.Uint64(p.buf[off:]))
		off += 8
	}
	for d := 0; d < geo.Dims; d++ {
		hi[d] = math.Float64frombits(binary.LittleEndian.Uint64(p.buf[off:]))
		off += 8
	}
	return geo.Rect{Lo: lo, Hi: hi}
}

// EntryAux returns entry i's payload, aliasing the pinned image. Callers
// must treat it as read-only and not retain it.
//
//skvet:hotpath
func (p *PackedNode) EntryAux(i int) []byte {
	if p.auxLen == 0 {
		return nil
	}
	off := p.entryOff(i) + baseEntrySize
	return p.buf[off : off+p.auxLen : off+p.auxLen]
}

// MatchMask is the signature test "if s matches w" of Figure 8 for all of
// the node's entries at once: it returns mask[:maskWords(count)] with bit i
// set when entry i's payload may contain everything sig describes (the
// answer sig.MatchesTolerant(EntryAux(i)) gives, which the tests hold it
// to) and no bit at or above count set. A nil or zero sig keeps every
// entry, and so does one whose length differs from the node's payloads: a
// mismatched signature cannot be trusted, so the only sound answer is "may
// match". mask must hold Tree.MaskWords words. The iterator calls it once
// per expanded node with the query's signature; the general ranked query's
// scorer calls it once per keyword, with that keyword's signature W_i.
//
// The mask starts full and is ANDed with the column of every set bit of sig.
// The columns' offsets are collected first, so their loads issue back to
// back instead of each waiting behind the bit scan: the columns of a warm
// cache do not fit in L2, and overlapping those misses is what the test
// costs.
//
//skvet:hotpath
func (p *PackedNode) MatchMask(sig *sigfile.Sig64, mask []uint64) []uint64 {
	nw := maskWords(p.count)
	mask = mask[:nw]
	for w := range mask {
		mask[w] = math.MaxUint64
	}
	if r := p.count % 64; r != 0 {
		mask[nw-1] = 1<<r - 1
	}
	if sig == nil || sig.Len() != p.auxLen {
		return mask
	}
	var offs [64]int
	n := 0
	for q := 0; q < sig.NumWords(); q++ {
		for qw := sig.Word(q); qw != 0; qw &= qw - 1 {
			if n == len(offs) {
				p.andColumns(offs[:n], mask)
				n = 0
			}
			offs[n] = (q*64 + bits.TrailingZeros64(qw)) * nw
			n++
		}
	}
	p.andColumns(offs[:n], mask)
	return mask
}

// andColumns ANDs into mask the columns starting at offs. A node of 65 to
// 128 entries — a full one at the paper's 4 KB blocks — keeps its two mask
// words in registers.
//
//skvet:hotpath
func (p *PackedNode) andColumns(offs []int, mask []uint64) {
	if len(mask) == 2 {
		m0, m1 := mask[0], mask[1]
		for _, o := range offs {
			m0 &= p.cols[o]
			m1 &= p.cols[o+1]
		}
		mask[0], mask[1] = m0, m1
		return
	}
	for _, o := range offs {
		for w := range mask {
			mask[w] &= p.cols[o+w]
		}
	}
}

// buildColumns transposes the pinned payloads into p.cols (see PackedNode),
// one 64×64 bit block at a time: word q of 64 entries' payloads (payload bit
// b is bit b%64 of word b/64, as in a Sig64) becomes 64 columns' words for
// those entries. The cost does not depend on how many bits are set.
func (p *PackedNode) buildColumns() {
	if p.auxLen == 0 || p.count == 0 {
		return
	}
	nw := maskWords(p.count)
	nbits := p.auxLen * 8
	p.cols = make([]uint64, nbits*nw)
	var blk [64]uint64
	for w := 0; w < nw; w++ {
		n := min(64, p.count-w*64)
		for q := 0; q*64 < nbits; q++ {
			for i := 0; i < n; i++ {
				blk[i] = sigfile.LoadWord(p.EntryAux(w*64+i), q)
			}
			clear(blk[n:])
			transpose64(&blk)
			for b := 0; b < min(64, nbits-q*64); b++ {
				p.cols[(q*64+b)*nw+w] = blk[b]
			}
		}
	}
}

// transpose64 transposes a 64×64 bit matrix in place: afterwards bit i of
// a[b] is what bit b of a[i] was. Each round swaps the off-diagonal blocks of
// every 2j×2j block along the diagonal, for j = 32, 16, …, 1 (Hacker's
// Delight §7-3); the index masks only spare the compiler a bounds check.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000ffffffff) // low j bits of every 2j-bit group
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			lo, hi := &a[k&63], &a[(k+j)&63]
			t := (*lo>>j ^ *hi) & m
			*lo ^= t << j
			*hi ^= t
		}
		m ^= m << (j / 2)
	}
}

// scratchBuf wraps a reusable block-image buffer so pooling it does not
// allocate a slice header per round trip.
type scratchBuf struct{ b []byte }

// getScratch returns a scratch buffer of at least n bytes.
func (t *Tree) getScratch(n int) *scratchBuf {
	sb := t.scratchPool.Get().(*scratchBuf)
	if cap(sb.b) < n {
		sb.b = make([]byte, n)
	}
	sb.b = sb.b[:n]
	return sb
}

func (t *Tree) putScratch(sb *scratchBuf) { t.scratchPool.Put(sb) }

// LoadPacked reads the node starting at block id as a packed image, serving
// it from the decoded-node cache when possible. The modeled device I/O is
// identical to LoadNode's: a cache hit charges the node's blocks, or re-reads
// them to verify the pinned image (see the package comment), so the
// benchmark cost model cannot tell a hit from a miss or from a tree without
// a cache.
func (t *Tree) LoadPacked(id storage.BlockID) (*PackedNode, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.loadPacked(id)
}

// RootPacked is LoadPacked of the root, or nil for an empty tree — where a
// reader that walks the tree itself (core's range query) starts.
func (t *Tree) RootPacked() (*PackedNode, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == storage.NilBlock {
		return nil, nil
	}
	return t.loadPacked(t.root)
}

func (t *Tree) loadPacked(id storage.BlockID) (*PackedNode, error) {
	if t.cache != nil {
		if pn, ok := t.cache.Get(id); ok {
			charged, err := t.dev.ChargeRun(id, pn.run, pn.seq)
			if err != nil {
				return nil, fmt.Errorf("rtree: load node %d: %w", id, err)
			}
			if charged {
				return pn, nil
			}
			return t.verifyPacked(id, pn)
		}
	}
	pn, err := t.readPacked(id)
	if err != nil {
		return nil, err
	}
	if t.cache != nil {
		t.cache.Put(id, pn)
	}
	return pn, nil
}

// verifyPacked re-reads a cached node's run (the same accesses a cold load
// would make) and returns the pinned decode if the on-disk image is
// unchanged, reparsing and replacing it otherwise. An image whose header
// now names a different run is read again from its first block.
func (t *Tree) verifyPacked(id storage.BlockID, pn *PackedNode) (*PackedNode, error) {
	sb := t.getScratch(pn.run * t.dev.BlockSize())
	at := t.dev.WriteSeq()
	if err := t.dev.ReadRunInto(id, pn.run, sb.b); err != nil {
		t.putScratch(sb)
		return nil, fmt.Errorf("rtree: load node %d: %w", id, err)
	}
	if bytes.Equal(sb.b[:len(pn.buf)], pn.buf) {
		t.putScratch(sb)
		return pn, nil
	}
	var fresh *PackedNode
	var err error
	if _, _, run, herr := t.parseHeader(id, sb.b); herr == nil && run != pn.run {
		fresh, err = t.readPacked(id)
	} else {
		fresh, err = t.parsePacked(id, sb.b, at)
	}
	t.putScratch(sb)
	if err != nil {
		return nil, err
	}
	t.cache.Put(id, fresh)
	return fresh, nil
}

// readPacked cold-loads a node image and pins it, stamped with the write
// sequence from before the read.
func (t *Tree) readPacked(id storage.BlockID) (*PackedNode, error) {
	at := t.dev.WriteSeq()
	sb, err := t.readImage(id)
	if err != nil {
		return nil, err
	}
	pn, err := t.parsePacked(id, sb.b, at)
	t.putScratch(sb)
	return pn, err
}

// readImage reads a node's whole run into pooled scratch, which the caller
// returns with putScratch. It is the access pattern of every cold node
// load, decoded or packed: the first block (one, typically random, access)
// to learn the level and the run, then the rest of the run (sequential
// accesses). A header that cannot be a node fails before the rest is read.
func (t *Tree) readImage(id storage.BlockID) (*scratchBuf, error) {
	bs := t.dev.BlockSize()
	sb := t.getScratch(bs)
	if err := t.dev.ReadRunInto(id, 1, sb.b); err != nil {
		t.putScratch(sb)
		return nil, fmt.Errorf("rtree: load node %d: %w", id, err)
	}
	_, _, run, err := t.parseHeader(id, sb.b)
	if err != nil {
		t.putScratch(sb)
		return nil, err
	}
	if run > 1 {
		need := run * bs
		if cap(sb.b) < need {
			grown := make([]byte, need)
			copy(grown, sb.b)
			sb.b = grown
		}
		sb.b = sb.b[:need]
		if err := t.dev.ReadRunInto(id+1, run-1, sb.b[bs:]); err != nil {
			t.putScratch(sb)
			return nil, fmt.Errorf("rtree: load node %d continuation: %w", id, err)
		}
	}
	return sb, nil
}

// parsePacked validates a raw node image (with loadNode's exact checks) and
// pins its trimmed prefix into a PackedNode, with at as the write sequence
// taken before img was read, and builds its signature columns. The returned
// node owns its buffers; img may be reused by the caller.
func (t *Tree) parsePacked(id storage.BlockID, img []byte, at uint64) (*PackedNode, error) {
	level, count, run, err := t.parseHeader(id, img)
	if err != nil {
		return nil, err
	}
	es := t.entrySize(level)
	need := nodeHeaderSize + count*es
	if need > len(img) {
		return nil, fmt.Errorf("rtree: corrupt node %d: %d entries exceed %d bytes", id, count, len(img))
	}
	buf := make([]byte, need)
	copy(buf, img[:need])
	pn := &PackedNode{
		id:     id,
		level:  level,
		count:  count,
		run:    run,
		es:     es,
		auxLen: t.AuxLen(level),
		buf:    buf,
		seq:    at,
	}
	pn.buildColumns()
	return pn, nil
}

// MaskWords returns the length of the mask PackedNode.MatchMask needs for any
// node of the tree: one bit per entry of a full node.
func (t *Tree) MaskWords() int { return maskWords(t.maxE) }

// CacheStats returns the decoded-node cache counters, or zeros when the
// cache is disabled.
func (t *Tree) CacheStats() nodecache.Stats {
	if t.cache == nil {
		return nodecache.Stats{}
	}
	return t.cache.Stats()
}
