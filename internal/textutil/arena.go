package textutil

import (
	"encoding/binary"
	"slices"
)

// TermArena holds every row's analyzed terms, indexed by row (an object
// ID): the row's distinct vocabulary term IDs, each with its pipeline term
// frequency in the row. A row is its terms in ascending ID order, each one
// varint of (gap << 2 | c), where gap is the distance from the previous
// term's ID plus one (the first term's ID itself) and c is the count minus
// one, capped at 3; a count of 4 or more is followed by a varint of the
// count minus 4. A term costs one byte when it follows the previous one
// within 32 IDs and occurs at most three times, which is nearly every term
// of a Hotels row (349 of a 1,396-word vocabulary). Bit-level codes
// (Exp-Golomb gaps, gamma counts) took 40 % fewer bytes there but decoded
// eight times slower, and a ranked query decodes every candidate's row.
//
// Rows are packed into chunks of chunkSize bytes that never move: a row
// that does not fit in the last chunk's room starts the next one (a row
// longer than a chunk gets one of its own), so the arena grows without
// copying what it holds, and wastes at most a row's bytes per chunk.
//
// Set changes the arena and uses its working space, so it needs exclusion
// from every other call; the readers only read it.
type TermArena struct {
	starts []uint32 // row → chunk<<chunkShift | offset of its first byte
	chunks [][]byte // each filled to its length
	sort   []uint64 // Set's working space: (term ID << 32 | count) per term,
	tmp    []uint64 // and the radix sort's second buffer
	enc    []byte   // Set's working space: the row being encoded
}

// chunkShift sets the chunk size, 64 KiB.
const (
	chunkShift = 16
	chunkSize  = 1 << chunkShift
)

// Len returns the number of rows the arena holds: rows [0, Len) were set,
// or skipped and hold no term.
func (a *TermArena) Len() int { return len(a.starts) }

// Grow makes room for n more rows' offsets.
func (a *TermArena) Grow(n int) { a.starts = slices.Grow(a.starts, n) }

// Set records row id's terms: distinct term IDs in any order, and each
// one's count (at least 1) at the same index. Rows are set in ascending
// order; rows between the last one set and id hold no term. It panics when
// id was already set, a logic error of the caller.
func (a *TermArena) Set(id int, terms []uint32, counts []int32) {
	if id < len(a.starts) {
		//skvet:ignore nopanic documented invariant: rows are set once, in ascending ID order
		panic("textutil: TermArena row set twice")
	}
	s := a.sort[:0]
	for i, t := range terms {
		s = append(s, uint64(t)<<32|uint64(uint32(counts[i])))
	}
	a.sort = s
	s = a.sortByID(s)
	b := encodeRow(a.enc[:0], s)
	a.enc = b
	last := len(a.chunks) - 1
	if last < 0 || len(a.chunks[last]) >= chunkSize || len(b) > cap(a.chunks[last])-len(a.chunks[last]) {
		a.chunks = append(a.chunks, make([]byte, 0, max(chunkSize, len(b))))
		last++
	}
	pos := uint32(last)<<chunkShift | uint32(len(a.chunks[last]))
	for len(a.starts) < id {
		a.starts = append(a.starts, pos) // skipped rows: empty, where id starts
	}
	a.starts = append(a.starts, pos)
	a.chunks[last] = append(a.chunks[last], b...)
}

// sortByID sorts s, one term per element, by term ID (the high 32 bits):
// a short row with slices.Sort, a long one with a radix sort on the ID's
// bytes, as many passes as its largest ID needs — a Hotels row's 349 terms
// take two, where a comparison sort was a quarter of a reopen's CPU. The
// result is a.sort or a.tmp.
func (a *TermArena) sortByID(s []uint64) []uint64 {
	if len(s) <= 64 {
		slices.Sort(s)
		return s
	}
	last := uint64(0)
	for _, v := range s {
		last = max(last, v>>32)
	}
	buf := slices.Grow(a.tmp[:0], len(s))[:len(s)]
	for shift := 32; shift < 64 && last>>(shift-32) != 0; shift += 8 {
		var at [256]int
		for _, v := range s {
			at[byte(v>>shift)]++
		}
		n := 0
		for i, c := range at {
			at[i], n = n, n+c
		}
		for _, v := range s {
			b := byte(v >> shift)
			buf[at[b]] = v
			at[b]++
		}
		s, buf = buf, s
	}
	a.sort, a.tmp = s, buf
	return s
}

// row returns row id's encoded terms: from its start to the next row's in
// the same chunk, or to the chunk's end.
//
//skvet:hotpath
func (a *TermArena) row(id int) []byte {
	s := a.starts[id]
	c := a.chunks[s>>chunkShift]
	end := len(c)
	if id+1 < len(a.starts) {
		if n := a.starts[id+1]; n>>chunkShift == s>>chunkShift {
			end = int(n & (chunkSize - 1))
		}
	}
	return c[s&(chunkSize-1) : end]
}

// NoTerm is a term ID no vocabulary hands out: a query keyword that no row
// holds looks up as NoTerm, and no row of an arena holds it.
const NoTerm = ^uint32(0)

// encodeRow appends the row of terms s — (term ID << 32 | count), ascending
// by ID — to b (see TermArena).
func encodeRow(b []byte, s []uint64) []byte {
	next := uint64(0) // the smallest ID the next term can have
	for _, tc := range s {
		t, n := tc>>32, tc&0xffffffff
		c := min(n, 4) - 1
		if v := (t-next)<<2 | c; v < 0x80 {
			b = append(b, byte(v))
		} else {
			b = binary.AppendUvarint(b, v)
		}
		if c == 3 {
			b = binary.AppendUvarint(b, n-4)
		}
		next = t + 1
	}
	return b
}

// termReader reads a row's terms back, in ascending ID order.
type termReader struct {
	b    []byte
	i    int
	next uint64 // the smallest ID the next term can have
}

// reader starts reading row id.
//
//skvet:hotpath
func (a *TermArena) reader(id int) termReader { return termReader{b: a.row(id)} }

// more reports whether a term is left.
//
//skvet:hotpath
func (r *termReader) more() bool { return r.i < len(r.b) }

// uvarint reads a varint; a one-byte varint, the common case, takes one
// branch.
//
//skvet:hotpath
func (r *termReader) uvarint() uint64 {
	if c := r.b[r.i]; c < 0x80 {
		r.i++
		return uint64(c)
	}
	v, n := binary.Uvarint(r.b[r.i:])
	r.i += n
	return v
}

// term reads the next term's ID and count.
//
//skvet:hotpath
func (r *termReader) term() (id, count uint64) {
	v := r.uvarint()
	id = r.next + v>>2
	r.next = id + 1
	if count = v&3 + 1; count == 4 {
		count += r.uvarint()
	}
	return id, count
}

// HoldsAll reports whether row id holds every term of want, which must be
// in ascending order (NoTerm last, where it fails the test).
//
//skvet:hotpath
func (a *TermArena) HoldsAll(id int, want []uint32) bool {
	r := a.reader(id)
	k := 0
	for k < len(want) && r.more() {
		t, _ := r.term()
		switch w := uint64(want[k]); {
		case t == w:
			k++
		case t > w:
			return false
		}
	}
	return k == len(want)
}

// CountsInto sets counts[i] to row id's count of term want[i] (0 when the
// row does not hold it; NoTerm counts 0), for want in any order; counts
// must hold len(want) elements. It stops reading the row past the largest
// term it looks for.
//
//skvet:hotpath
func (a *TermArena) CountsInto(counts []int, id int, want []uint32) {
	clear(counts[:len(want)])
	last := uint64(0)
	for _, w := range want {
		if w != NoTerm {
			last = max(last, uint64(w))
		}
	}
	r := a.reader(id)
	for r.more() {
		t, n := r.term()
		if t > last {
			return
		}
		for k, w := range want {
			if uint64(w) == t {
				counts[k] = int(n)
			}
		}
	}
}

// Words appends the word of each of row id's terms, ascending by term ID,
// to dst: v's strings, not copies.
func (a *TermArena) Words(dst []string, id int, v *Vocabulary) []string {
	r := a.reader(id)
	for r.more() {
		t, _ := r.term()
		dst = append(dst, v.Word(uint32(t)))
	}
	return dst
}

// Terms appends row id's term IDs, ascending, to ids and their counts to
// counts, and returns both.
func (a *TermArena) Terms(id int, ids []uint32, counts []int32) ([]uint32, []int32) {
	r := a.reader(id)
	for r.more() {
		t, n := r.term()
		ids = append(ids, uint32(t))
		counts = append(counts, int32(n))
	}
	return ids, counts
}
