// Packed node images and the pinned decoded-node cache — the only
// representation a reader of the tree sees.
//
// loadNode decodes a node into pointer-rich structs: a Node, an entry slice,
// two geo.Points and an aux copy per entry — for a 102-entry node that is
// several hundred allocations. That is what the mutation path and the
// invariant checker work on. A PackedNode instead pins the node's trimmed
// on-disk image (exactly the bytes storeNode wrote) in a single allocation
// and serves pointers, rectangles, and payloads by offset arithmetic
// straight off that buffer. Decoded images live in a nodecache.Cache keyed
// by the node's first BlockID, shared by every query on the tree; a tree
// built with a negative Config.CacheNodes has no cache and pins each image
// for one visit.
//
// A hit is charged, not re-read. Every image carries the device's write
// sequence (storage.Device.WriteSeq) taken before its blocks were read, and
// a hit hands it to the device's ChargeRun over the node's block run: if no
// block of the run has been written since, the device charges exactly the
// random/sequential accesses a cold load of the run would — so the counters
// that feed the benchmark cost model are bit-identical with and without the
// cache — runs the fault hook, and moves no bytes. If a block was written
// since, or the device declines (a ChecksumDisk, whose promise is a CRC on
// every read; a FaultDevice whose plan arms a read fault), the hit falls
// back to verifying: ReadRunInto over the same run into pooled scratch,
// compared with the pinned image and reparsed on any difference.
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

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/nodecache"
	"spatialkeyword/internal/storage"
)

// PackedNode is a decoded node pinned in its serialized layout: one buffer
// holding exactly the bytes storeNode encodes (header + count entries), plus
// the header fields and per-level sizes needed to address entries in place.
// PackedNodes are immutable once published to the cache; accessors that
// return slices alias the buffer and must not be written through or retained
// past the next tree mutation.
type PackedNode struct {
	id     storage.BlockID
	level  int
	count  int
	dim    int
	es     int // serialized entry size at this level
	auxLen int
	buf    []byte // trimmed image: nodeHeaderSize + count*es bytes
	seq    uint64 // device write sequence taken before buf was read
}

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
// points (each of length dim) and returns a Rect built from them. The
// caller owns the backing arrays, so a traversal can reuse one pair of
// points for every entry it scores.
//
//skvet:hotpath
func (p *PackedNode) EntryRectInto(i int, lo, hi geo.Point) geo.Rect {
	off := p.entryOff(i) + 8
	for d := 0; d < p.dim; d++ {
		lo[d] = math.Float64frombits(binary.LittleEndian.Uint64(p.buf[off:]))
		off += 8
	}
	for d := 0; d < p.dim; d++ {
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
	off := p.entryOff(i) + 8 + p.dim*16
	return p.buf[off : off+p.auxLen : off+p.auxLen]
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
			charged, err := t.dev.ChargeRun(id, t.blocksForLevel(pn.level), pn.seq)
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

// verifyPacked re-reads a cached node's blocks (the same accesses a cold
// load would make) and returns the pinned decode if the on-disk image is
// unchanged, reparsing and replacing it otherwise.
func (t *Tree) verifyPacked(id storage.BlockID, pn *PackedNode) (*PackedNode, error) {
	nblocks := t.blocksForLevel(pn.level)
	sb := t.getScratch(nblocks * t.dev.BlockSize())
	at := t.dev.WriteSeq()
	if err := t.dev.ReadRunInto(id, nblocks, sb.b); err != nil {
		t.putScratch(sb)
		return nil, fmt.Errorf("rtree: load node %d: %w", id, err)
	}
	if bytes.Equal(sb.b[:len(pn.buf)], pn.buf) {
		t.putScratch(sb)
		return pn, nil
	}
	fresh, err := t.parsePacked(id, sb.b, at)
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

// readImage reads a node's whole block run into pooled scratch, which the
// caller returns with putScratch. It is the access pattern of every cold
// node load, decoded or packed: the first block (one, typically random,
// access) to learn the level, then the continuation run (sequential
// accesses). A header that cannot be a node fails before the continuation
// is read.
func (t *Tree) readImage(id storage.BlockID) (*scratchBuf, error) {
	bs := t.dev.BlockSize()
	sb := t.getScratch(bs)
	if err := t.dev.ReadRunInto(id, 1, sb.b); err != nil {
		t.putScratch(sb)
		return nil, fmt.Errorf("rtree: load node %d: %w", id, err)
	}
	level := int(binary.LittleEndian.Uint32(sb.b[0:4]))
	count := int(binary.LittleEndian.Uint32(sb.b[4:8]))
	if level < 0 || level > 64 || count < 0 || count > t.maxE {
		t.putScratch(sb)
		return nil, fmt.Errorf("rtree: corrupt node %d: level=%d count=%d", id, level, count)
	}
	if nblocks := t.blocksForLevel(level); nblocks > 1 {
		need := nblocks * bs
		if cap(sb.b) < need {
			grown := make([]byte, need)
			copy(grown, sb.b)
			sb.b = grown
		}
		sb.b = sb.b[:need]
		if err := t.dev.ReadRunInto(id+1, nblocks-1, sb.b[bs:]); err != nil {
			t.putScratch(sb)
			return nil, fmt.Errorf("rtree: load node %d continuation: %w", id, err)
		}
	}
	return sb, nil
}

// parsePacked validates a raw node image (with loadNode's exact checks) and
// pins its trimmed prefix into a PackedNode, with at as the write sequence
// taken before img was read. The returned node owns its buffer; img may be
// reused by the caller.
func (t *Tree) parsePacked(id storage.BlockID, img []byte, at uint64) (*PackedNode, error) {
	level := int(binary.LittleEndian.Uint32(img[0:4]))
	count := int(binary.LittleEndian.Uint32(img[4:8]))
	if level < 0 || level > 64 || count < 0 || count > t.maxE {
		return nil, fmt.Errorf("rtree: corrupt node %d: level=%d count=%d", id, level, count)
	}
	es := t.entrySize(level)
	need := nodeHeaderSize + count*es
	if need > len(img) {
		return nil, fmt.Errorf("rtree: corrupt node %d: %d entries exceed %d bytes", id, count, len(img))
	}
	buf := make([]byte, need)
	copy(buf, img[:need])
	return &PackedNode{
		id:     id,
		level:  level,
		count:  count,
		dim:    t.dim,
		es:     es,
		auxLen: t.scheme.EntryAuxLen(level),
		buf:    buf,
		seq:    at,
	}, nil
}

// CacheStats returns the decoded-node cache counters, or zeros when the
// cache is disabled.
func (t *Tree) CacheStats() nodecache.Stats {
	if t.cache == nil {
		return nodecache.Stats{}
	}
	return t.cache.Stats()
}
