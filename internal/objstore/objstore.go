// Package objstore implements the object file of the paper's evaluation:
// "the spatial objects are stored in a plain text file and the leaf nodes of
// the tree data structures store pointers to the object locations in the
// file" (Section 6).
//
// Objects are serialized as tab-delimited rows — id, dimension, coordinates,
// then the text document — packed back to back across disk blocks. An object
// pointer is the byte offset of its row; LoadObject reads the block holding
// that offset (one random access) plus however many consecutive blocks the
// row spills into (sequential accesses). This is exactly the cost model
// behind Table 1's "average # disk blocks per object" column: a Restaurants
// row fits in one block, a Hotels row typically spans two.
//
// The last, partly filled block of the file is the open block. Sync writes
// it in place — allocated the first time, rewritten after that — so rows
// added one at a time between checkpoints still pack back to back instead of
// taking a block each. Only Checkpoint seals the open block (pads the file to
// the next block boundary), so every checkpointed file ends on one.
package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"sync"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

// ID is a dense object identifier assigned in append order, starting at 0.
type ID uint64

// Ptr locates an object row: the byte offset of the row start in the file.
// This is the ObjPtr the paper's R-Tree and IR²-Tree leaves store; a served
// tree's leaves name the row's ID instead.
type Ptr uint64

// Object is a spatial object T = (T.p, T.t): a location plus a text
// document (paper Section II).
type Object struct {
	ID    ID
	Point geo.Point
	Text  string
}

// ErrNotSynced is returned when reading a row that has not been flushed to
// the device yet.
var ErrNotSynced = errors.New("objstore: object not synced to device")

// ErrCorrupt is returned when a row fails to parse.
var ErrCorrupt = errors.New("objstore: corrupt row")

// Store is an append-only object file on a block device. Appends are
// buffered; call Sync before reading back. Store is not safe for concurrent
// writers; concurrent readers are safe once synced (every read goes through
// the device into a scratch buffer of its own).
type Store struct {
	dev storage.Device

	blocks   []storage.BlockID // i-th file block -> device block
	synced   uint64            // bytes durably written
	open     uint64            // offset of the open block: where tail starts, a block boundary
	tail     []byte            // the open block's bytes, synced or not
	count    uint64            // number of objects appended
	ptrs     []Ptr             // object ID -> row offset (in-memory directory)
	blockSum uint64            // total blocks spanned by all rows (for stats)

	// firsts is the row index beside ptrs: bucket j, the file's bytes from
	// j<<shift, holds the ID of the first row starting at or after the
	// bucket's start, for every bucket up to the one the last row starts
	// in. A bucket is at most 256 bytes and never more than a block, so
	// idAt scans the few rows that start in one bucket (the store
	// addresses fewer than 2³² rows).
	firsts []uint32
	shift  uint
}

// maxBucketShift sets the row index's bucket at 256 bytes: 4 bytes of index
// per 256 bytes of file, and a handful of short rows to scan per lookup.
const maxBucketShift = 8

// New returns an empty object store on dev.
func New(dev storage.Device) *Store {
	// The largest power of two at most the block size, capped.
	return &Store{dev: dev, shift: min(maxBucketShift, uint(bits.Len(uint(dev.BlockSize())))-1)}
}

// NumObjects returns the number of appended objects.
func (s *Store) NumObjects() int { return int(s.count) }

// Ptrs returns the row pointer for every object, indexed by ID. The returned
// slice is owned by the store; callers must not modify it. Index builders
// use this to scan the file without re-deriving offsets.
func (s *Store) Ptrs() []Ptr { return s.ptrs }

// Append serializes obj (the ID field is ignored and assigned) and returns
// its assigned ID and row pointer. The text is sanitized: tabs and newlines
// become spaces, since rows are line-delimited.
//
// A non-nil error means the device rejected a block flush. The row itself
// is still buffered (the returned ID and Ptr remain valid), so a later
// Append or Sync retries the flush once the device recovers.
func (s *Store) Append(point geo.Point, text string) (ID, Ptr, error) {
	id := ID(s.count)
	ptr := Ptr(s.open + uint64(len(s.tail)))
	row := encodeRow(id, point, text)
	s.tail = append(s.tail, row...)
	s.addRow(ptr)
	s.blockSum += uint64(s.rowBlockSpan(ptr, len(row)))
	if err := s.flushFullBlocks(); err != nil {
		return id, ptr, fmt.Errorf("objstore: append: %w", err)
	}
	return id, ptr, nil
}

// addRow enters the next row, starting at ptr, in the directory and the row
// index: every bucket from the previous row's to ptr's gets it as its first
// row at or after.
func (s *Store) addRow(ptr Ptr) {
	id := uint32(s.count)
	s.count++
	s.ptrs = append(s.ptrs, ptr)
	for j := uint64(len(s.firsts)); j<<s.shift <= uint64(ptr); j++ {
		s.firsts = append(s.firsts, id)
	}
}

// idAt returns the ID of the row that starts at ptr, and false when no row
// starts there (an offset inside a row, in padding or past the last row):
// the row index names the first row at or after ptr's bucket, and the rows
// starting inside one bucket are few. It bounds a row read by pointer
// (endAt), the paper's trees' reads, whose leaves point into the file.
//
//skvet:hotpath
func (s *Store) idAt(ptr Ptr) (ID, bool) {
	j := uint64(ptr) >> s.shift
	if j >= uint64(len(s.firsts)) {
		return 0, false
	}
	for id := int(s.firsts[j]); id < len(s.ptrs) && s.ptrs[id] <= ptr; id++ {
		if s.ptrs[id] == ptr {
			return ID(id), true
		}
	}
	return 0, false
}

// rowEnd bounds where row id ends: the next row's start, or the synced
// length for the last row (a sealed block's padding lies before either).
func (s *Store) rowEnd(id ID) uint64 {
	if next := uint64(id) + 1; next < s.count && uint64(s.ptrs[next]) < s.synced {
		return uint64(s.ptrs[next])
	}
	return s.synced
}

// rowBlockSpan returns how many blocks a row starting at ptr with the given
// length touches.
func (s *Store) rowBlockSpan(ptr Ptr, length int) int {
	bs := uint64(s.dev.BlockSize())
	first := uint64(ptr) / bs
	last := (uint64(ptr) + uint64(length) - 1) / bs
	return int(last - first + 1)
}

// AvgBlocksPerObject returns the mean number of blocks a row spans — the
// last column of Table 1.
func (s *Store) AvgBlocksPerObject() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.blockSum) / float64(s.count)
}

// flushFullBlocks writes every complete block sitting in the tail buffer and
// opens the block after it. On error the unflushed bytes stay in the tail,
// so the flush is retryable.
func (s *Store) flushFullBlocks() error {
	bs := s.dev.BlockSize()
	for len(s.tail) >= bs {
		if err := s.writeOpen(s.tail[:bs]); err != nil {
			return err
		}
		s.tail = s.tail[bs:]
		s.open += uint64(bs)
		s.synced = s.open
	}
	return nil
}

// writeOpen writes data, the open block's bytes from its start, to the open
// block's device block: a rewrite once Sync has given it one, otherwise a
// fresh allocation, which a failed write releases again. Either way a
// failure leaves the block list as it was.
func (s *Store) writeOpen(data []byte) error {
	if i := int(s.open / uint64(s.dev.BlockSize())); i < len(s.blocks) {
		return s.dev.Write(s.blocks[i], data)
	}
	id := s.dev.Alloc()
	if id == storage.NilBlock {
		return storage.ErrDeviceFull
	}
	if err := s.dev.Write(id, data); err != nil {
		s.dev.Free(id)
		return err
	}
	s.blocks = append(s.blocks, id)
	return nil
}

// Sync makes every appended row readable by writing the open block in place,
// and leaves that block open: the next Append continues in it, and the next
// Sync rewrites it, so rows synced one at a time still pack back to back. A
// torn rewrite can damage rows an earlier Sync wrote into the same block;
// they are as durable as the store's owner makes them between checkpoints
// (a durable engine restores its last checkpoint and replays its log).
func (s *Store) Sync() error {
	if err := s.flushFullBlocks(); err != nil {
		return fmt.Errorf("objstore: sync: %w", err)
	}
	end := s.open + uint64(len(s.tail))
	if end == s.synced {
		return nil
	}
	if err := s.writeOpen(s.tail); err != nil {
		return fmt.Errorf("objstore: sync: %w", err)
	}
	s.synced = end
	return nil
}

// Unsynced reports whether an appended row is not readable yet: the open
// block holds bytes Sync has not written.
func (s *Store) Unsynced() bool { return s.open+uint64(len(s.tail)) != s.synced }

// seal closes a synced open block: the logical file is padded with zeros to
// the next block boundary, where the next row starts. (Rows end in '\n' and
// padding is zero bytes, so readers never confuse padding for data.)
func (s *Store) seal() {
	if len(s.tail) == 0 {
		return
	}
	s.open += uint64(s.dev.BlockSize())
	s.synced = s.open
	s.tail = nil
}

// Get loads the object whose row starts at ptr, reading the row's block(s)
// from the device. This is the LoadObject of the paper's algorithms; its
// I/O cost is one random access plus sequential accesses for any
// continuation blocks.
func (s *Store) Get(ptr Ptr) (Object, error) {
	sc := rowScratchPool.Get().(*RowScratch)
	defer rowScratchPool.Put(sc)
	return s.get(ptr, s.endAt(ptr), sc, false)
}

// get is Get through a caller-held scratch: readRow, then decode.
func (s *Store) get(ptr Ptr, end uint64, sc *RowScratch, shareBlocks bool) (Object, error) {
	if err := s.readRow(ptr, end, sc, shareBlocks); err != nil {
		return Object{}, err
	}
	obj, err := decodeRow(sc.row)
	if err != nil {
		return Object{}, fmt.Errorf("row at %d: %w", ptr, err)
	}
	return obj, nil
}

// endAt is rowEnd for the row starting at ptr, or 0 when no row starts
// there: readRow then reads a block at a time.
//
//skvet:hotpath
func (s *Store) endAt(ptr Ptr) uint64 {
	if id, ok := s.idAt(ptr); ok {
		return s.rowEnd(id)
	}
	return 0
}

// RowScratch holds the reusable buffers of a row read. Once the buffers
// reach steady-state size, row fetches through the same scratch stop
// allocating — the point of the read hot path's candidate filter.
type RowScratch struct {
	block []byte
	buf   []byte // a row read in pieces, joined
	row   []byte // the row last read: a view of block, or of buf
	held  int    // Scan only: file-block index sitting in block, -1 for none
}

// rowScratchPool serves the readers that take no scratch of their own (Get,
// Scan); decodeRow copies everything an Object keeps, so a scratch goes back
// to the pool as soon as the row is decoded.
var rowScratchPool = sync.Pool{New: func() any { return new(RowScratch) }}

// readRow points sc.row at the row at ptr, without its newline: the one
// row-read body of the store. end bounds the row (rowEnd), so the blocks
// from ptr's to end's that sit back to back on the device are read with
// one ReadRunInto — the device admits, charges and fault-checks them block
// by block, one random access plus a sequential access per continuation
// block, as reading them one at a time would. Past end (no bound, or a
// row whose newline is not where the directory says) blocks are read one
// at a time until the terminating newline appears. With shareBlocks a
// block still sitting in sc.block from the previous row is not read again
// (Scan, which passes no bound); otherwise every row pays its own accesses.
//
//skvet:hotpath
func (s *Store) readRow(ptr Ptr, end uint64, sc *RowScratch, shareBlocks bool) error {
	if uint64(ptr) >= s.synced {
		return fmt.Errorf("%w: offset %d >= synced %d", ErrNotSynced, ptr, s.synced)
	}
	bs := s.dev.BlockSize()
	blockIdx := int(uint64(ptr) / uint64(bs))
	offsetInBlock := int(uint64(ptr) % uint64(bs))
	last := blockIdx // the last block the row can reach, by end
	if end > uint64(ptr) {
		last = int((end - 1) / uint64(bs))
	}
	sc.buf = sc.buf[:0]
	for {
		if blockIdx >= len(s.blocks) {
			// The row starts in a synced block but its continuation is
			// still sitting in the tail buffer.
			return fmt.Errorf("%w: row at %d continues past synced data", ErrNotSynced, ptr)
		}
		n := 1
		for blockIdx+n <= last && blockIdx+n < len(s.blocks) && s.blocks[blockIdx+n] == s.blocks[blockIdx]+storage.BlockID(n) {
			n++
		}
		if len(sc.block) < n*bs {
			//skvet:ignore hotalloc scratch warm-up to the longest run read, amortized across a query's loads
			sc.block = make([]byte, n*bs)
		}
		run := sc.block[:n*bs]
		if !shareBlocks || sc.held != blockIdx {
			if err := s.dev.ReadRunInto(s.blocks[blockIdx], n, run); err != nil {
				return fmt.Errorf("objstore: get %d: %w", ptr, err)
			}
			sc.held = blockIdx
		}
		chunk := run[offsetInBlock:]
		if i := bytes.IndexByte(chunk, '\n'); i >= 0 {
			if len(sc.buf) == 0 {
				sc.row = chunk[:i] // the whole row is in this run: no copy
			} else {
				sc.buf = append(sc.buf, chunk[:i]...)
				sc.row = sc.buf
			}
			return nil
		}
		sc.buf = append(sc.buf, chunk...)
		blockIdx += n
		offsetInBlock = 0
	}
}

// GetFiltered loads the row at ptr with Get's exact device-access pattern
// and error semantics, but materializes the Object only when accept returns
// true for the row's raw text field. The text slice aliases the scratch and
// must not be retained past accept's return. A top-k query's
// false-positive filter runs here: most signature-matched candidates fail
// the keyword check, and skipping their Object materialization (point
// slice, field split, row copy) is what keeps the warm read path's
// allocations per query bounded by survivors, not loads.
//
//skvet:hotpath
func (s *Store) GetFiltered(ptr Ptr, sc *RowScratch, accept func(text []byte) bool) (Object, bool, error) {
	if err := s.readRow(ptr, s.endAt(ptr), sc, false); err != nil {
		return Object{}, false, err
	}
	if text, ok := rowText(sc.row); ok {
		if !accept(text) {
			return Object{}, false, nil
		}
	}
	// Survivor — or a malformed row, which decodeRow diagnoses properly.
	obj, err := decodeRow(sc.row)
	if err != nil {
		return Object{}, false, fmt.Errorf("row at %d: %w", ptr, err)
	}
	return obj, true, nil
}

// rowText locates the text field of a serialized row without allocating:
// skip the id and dimension fields, then dim coordinate fields. The text
// itself contains no tabs (sanitize strips them on append), so it runs to
// the end of the row. ok is false for rows that do not parse, which are
// left for decodeRow to diagnose.
//
//skvet:hotpath
func rowText(row []byte) ([]byte, bool) {
	i := bytes.IndexByte(row, '\t') // id
	if i < 0 {
		return nil, false
	}
	rest := row[i+1:]
	j := bytes.IndexByte(rest, '\t') // dimension
	if j < 0 {
		return nil, false
	}
	dim, ok := parseDim(rest[:j], len(row))
	if !ok {
		return nil, false
	}
	rest = rest[j+1:]
	for d := 0; d < dim; d++ {
		k := bytes.IndexByte(rest, '\t')
		if k < 0 {
			return nil, false
		}
		rest = rest[k+1:]
	}
	if bytes.IndexByte(rest, '\t') >= 0 {
		return nil, false
	}
	return rest, true
}

// GetByID loads object id via the in-memory pointer directory, bounding the
// row by the next one's start (no index lookup).
func (s *Store) GetByID(id ID) (Object, error) {
	if uint64(id) >= s.count {
		return Object{}, fmt.Errorf("objstore: no object %d", id)
	}
	sc := rowScratchPool.Get().(*RowScratch)
	defer rowScratchPool.Put(sc)
	return s.get(s.ptrs[id], s.rowEnd(id), sc, false)
}

// Scan calls fn for every stored object in append order. It stops early and
// returns fn's error if non-nil. Scan performs device reads (it is how index
// builders pay for reading the file once): rows that share a block share its
// read.
func (s *Store) Scan(fn func(Object, Ptr) error) error {
	sc := rowScratchPool.Get().(*RowScratch)
	defer rowScratchPool.Put(sc)
	sc.held = -1 // whatever the pooled scratch last read is not this store's
	for id := uint64(0); id < s.count; id++ {
		if uint64(s.ptrs[id]) >= s.synced {
			return fmt.Errorf("%w: object %d", ErrNotSynced, id)
		}
		obj, err := s.get(s.ptrs[id], 0, sc, true)
		if err != nil {
			return err
		}
		if err := fn(obj, s.ptrs[id]); err != nil {
			return err
		}
	}
	return nil
}

// SizeBytes returns the file's on-disk footprint.
func (s *Store) SizeBytes() int64 {
	return int64(len(s.blocks)) * int64(s.dev.BlockSize())
}

// SizeMB returns the footprint in megabytes (10^6 bytes).
func (s *Store) SizeMB() float64 { return float64(s.SizeBytes()) / 1e6 }

// encodeRow renders "id \t dim \t c1 .. cd \t text \n" with text sanitized.
func encodeRow(id ID, p geo.Point, text string) []byte {
	var b strings.Builder
	b.Grow(len(text) + 64)
	b.WriteString(strconv.FormatUint(uint64(id), 10))
	b.WriteByte('\t')
	b.WriteString(strconv.Itoa(len(p)))
	for _, c := range p {
		b.WriteByte('\t')
		b.WriteString(strconv.FormatFloat(c, 'g', -1, 64))
	}
	b.WriteByte('\t')
	b.WriteString(sanitize(text))
	b.WriteByte('\n')
	return []byte(b.String())
}

// decodeRow parses a row (without its trailing newline). It locates the
// fields in place, as rowText does, so a decoded object costs its point and
// one string for its text, and nothing it keeps aliases row.
func decodeRow(row []byte) (Object, error) {
	fields := bytes.Count(row, []byte{'\t'}) + 1
	if fields < 3 {
		return Object{}, fmt.Errorf("%w: %d fields", ErrCorrupt, fields)
	}
	idField, rest, _ := bytes.Cut(row, []byte{'\t'})
	id, err := strconv.ParseUint(string(idField), 10, 64)
	if err != nil {
		return Object{}, fmt.Errorf("%w: bad id %q", ErrCorrupt, idField)
	}
	dimField, rest, _ := bytes.Cut(rest, []byte{'\t'})
	dim, ok := parseDim(dimField, len(row))
	if !ok {
		return Object{}, fmt.Errorf("%w: bad dimension %q", ErrCorrupt, dimField)
	}
	if fields != dim+3 {
		return Object{}, fmt.Errorf("%w: want %d fields, have %d", ErrCorrupt, dim+3, fields)
	}
	p := make(geo.Point, dim)
	for i := range p {
		var c []byte
		c, rest, _ = bytes.Cut(rest, []byte{'\t'})
		if p[i], err = strconv.ParseFloat(string(c), 64); err != nil {
			return Object{}, fmt.Errorf("%w: bad coordinate %q", ErrCorrupt, c)
		}
	}
	return Object{ID: ID(id), Point: p, Text: string(rest)}, nil
}

// parseDim parses a row's dimension field as encodeRow writes it: decimal
// digits only, no sign. A row holds a tab per coordinate, so a dimension
// above rowLen is refused before it can overflow. rowText and decodeRow both
// parse the field here, so every row decodeRow accepts has its text located
// — and filtered by GetFiltered's accept — first.
//
//skvet:hotpath
func parseDim(field []byte, rowLen int) (int, bool) {
	if len(field) == 0 {
		return 0, false
	}
	dim := 0
	for _, c := range field {
		if c < '0' || c > '9' {
			return 0, false
		}
		dim = dim*10 + int(c-'0')
		if dim > rowLen {
			return 0, false
		}
	}
	return dim, true
}

// sanitize replaces row delimiters — and NUL, which marks sealed-block
// padding during directory rebuilds — in free text with spaces.
func sanitize(text string) string {
	return strings.Map(func(r rune) rune {
		if r == '\t' || r == '\n' || r == '\r' || r == 0 {
			return ' '
		}
		return r
	}, text)
}
