// Package invindex implements the disk-resident inverted index and the
// Inverted Index Only (IIO) baseline algorithm of the paper (Section 5.1,
// Figure 7).
//
// The index maps each word to a posting list of object references, sorted
// and delta-varint encoded, packed back to back into one contiguous block
// region. Retrieving a word's list reads its blocks: one random access plus
// sequential accesses for the continuation blocks — short lists (rare words)
// are cheap, long lists (common words) are expensive, which is exactly the
// selectivity behavior the paper's IIO discussion turns on.
//
// The dictionary (word -> list location) is kept in memory at query time,
// the usual assumption for inverted indexes; its serialized form is also
// written to the device so the structure's size (Table 2) accounts for it.
//
// A built index stays appendable. Append posts a document whose reference
// exceeds every reference posted so far into a small in-memory tail, so a
// word's list is its on-device list followed by its tail list and stays
// sorted without merging. Fold re-encodes the on-device lists and the tail
// into a fresh region, read from the index's own lists. With an empty tail
// every read charges exactly the blocks the static structure charges.
package invindex

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"

	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// listRef locates one posting list inside the postings region.
type listRef struct {
	offset uint64 // byte offset within the region
	length uint32 // encoded byte length
	count  uint32 // number of postings
}

// layout is one encoded generation of the index on the device: the
// postings region, its dictionary, and the blocks both occupy.
type layout struct {
	dict         map[string]listRef
	postings     int // total postings across all lists
	firstBlock   storage.BlockID
	regionBlocks int
	dictBlock    storage.BlockID
	dictBlocks   int
}

// Index is a disk-resident inverted index. Call Add for every object and
// then Build once, from one goroutine; afterwards Append and Fold keep it
// current. Once built it is safe for concurrent use: readers share a lock
// that Append and Fold take exclusively, so Intersect never observes a
// half-appended document.
type Index struct {
	dev storage.Device

	mu       sync.RWMutex
	building map[string][]uint64
	built    bool
	base     layout

	// The tail: postings appended since the base was encoded.
	tail         map[string][]uint64
	tailPostings int

	// maxRef is the largest reference ever posted (valid when hasRef);
	// Append accepts only larger ones.
	maxRef uint64
	hasRef bool
}

// New returns an empty index on dev.
func New(dev storage.Device) *Index {
	return &Index{dev: dev, building: make(map[string][]uint64)}
}

// post appends ref to m's list of every distinct non-empty word and
// returns the number of postings added.
func post(m map[string][]uint64, ref uint64, words []string) int {
	n := 0
	seen := make(map[string]struct{}, len(words))
	for _, w := range words {
		if w == "" {
			continue
		}
		if _, dup := seen[w]; dup {
			continue
		}
		seen[w] = struct{}{}
		m[w] = append(m[w], ref)
		n++
	}
	return n
}

// Add posts an object reference under every distinct word of words. It must
// be called before Build; words are used as given (normalize upstream).
func (ix *Index) Add(ref uint64, words []string) {
	if ix.built {
		//skvet:ignore nopanic documented API misuse: after Build documents enter through Append
		panic("invindex: Add after Build")
	}
	post(ix.building, ref, words)
	if !ix.hasRef || ref > ix.maxRef {
		ix.maxRef, ix.hasRef = ref, true
	}
}

// AddDocument tokenizes text and posts ref under each distinct token.
func (ix *Index) AddDocument(ref uint64, text string) {
	var plain *textutil.Analyzer // nil: plain tokenization
	ix.Add(ref, plain.Unique(text))
}

// Append posts a document into a built index. ref must exceed every
// reference posted before it — that is what keeps each list sorted with
// the tail simply following the on-device postings — and a ref that does
// not is rejected, leaving the index unchanged. The postings stay in
// memory until the next Fold.
func (ix *Index) Append(ref uint64, words []string) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.built {
		return fmt.Errorf("invindex: Append before Build")
	}
	if ix.hasRef && ref <= ix.maxRef {
		return fmt.Errorf("invindex: Append ref %d does not exceed last posted ref %d", ref, ix.maxRef)
	}
	ix.maxRef, ix.hasRef = ref, true
	if ix.tail == nil {
		ix.tail = make(map[string][]uint64)
	}
	ix.tailPostings += post(ix.tail, ref, words)
	return nil
}

// encodeList delta-varint encodes the ascending refs onto region,
// skipping repeats, records the list's location under w in dict, and
// returns the grown region.
func encodeList(region []byte, dict map[string]listRef, w string, refs []uint64) []byte {
	var scratch [binary.MaxVarintLen64]byte
	start := len(region)
	prev := uint64(0)
	n := 0
	for i, r := range refs {
		if i > 0 && r == prev {
			continue // dedupe defensively
		}
		k := binary.PutUvarint(scratch[:], r-prev)
		region = append(region, scratch[:k]...)
		prev = r
		n++
	}
	dict[w] = listRef{
		offset: uint64(start),
		length: uint32(len(region) - start),
		count:  uint32(n),
	}
	return region
}

// decodeList decodes count delta-varint postings from data onto dst.
func decodeList(dst []uint64, data []byte, count uint32) ([]uint64, bool) {
	var prev uint64
	for i := uint32(0); i < count; i++ {
		delta, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, false
		}
		data = data[n:]
		prev += delta
		dst = append(dst, prev)
	}
	return dst, true
}

// release frees the blocks of a layout.
func (ix *Index) release(l layout) {
	for i := 0; i < l.regionBlocks; i++ {
		ix.dev.Free(l.firstBlock + storage.BlockID(i))
	}
	for i := 0; i < l.dictBlocks; i++ {
		ix.dev.Free(l.dictBlock + storage.BlockID(i))
	}
}

// write stores an encoded region and the dictionary that indexes it
// (words ascending) on the device. On error nothing stays allocated.
func (ix *Index) write(words []string, dict map[string]listRef, region []byte) (layout, error) {
	l := layout{dict: dict}
	bs := ix.dev.BlockSize()
	if len(region) > 0 {
		l.regionBlocks = (len(region) + bs - 1) / bs
		l.firstBlock = ix.dev.AllocRun(l.regionBlocks)
		if err := ix.dev.WriteRun(l.firstBlock, l.regionBlocks, region); err != nil {
			ix.release(l)
			return layout{}, fmt.Errorf("invindex: write postings: %w", err)
		}
	}

	// Serialize the dictionary for size accounting: len|word|offset|length|count.
	var dictBuf []byte
	var scratch [binary.MaxVarintLen64]byte
	for _, w := range words {
		r := dict[w]
		l.postings += int(r.count)
		k := binary.PutUvarint(scratch[:], uint64(len(w)))
		dictBuf = append(dictBuf, scratch[:k]...)
		dictBuf = append(dictBuf, w...)
		for _, v := range []uint64{r.offset, uint64(r.length), uint64(r.count)} {
			k = binary.PutUvarint(scratch[:], v)
			dictBuf = append(dictBuf, scratch[:k]...)
		}
	}
	if len(dictBuf) > 0 {
		l.dictBlocks = (len(dictBuf) + bs - 1) / bs
		l.dictBlock = ix.dev.AllocRun(l.dictBlocks)
		if err := ix.dev.WriteRun(l.dictBlock, l.dictBlocks, dictBuf); err != nil {
			ix.release(l)
			return layout{}, fmt.Errorf("invindex: write dictionary: %w", err)
		}
	}
	return l, nil
}

// Build encodes all posting lists and the dictionary onto the device.
// After Build, documents enter through Append.
func (ix *Index) Build() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.built {
		return fmt.Errorf("invindex: already built")
	}
	words := make([]string, 0, len(ix.building))
	for w := range ix.building {
		words = append(words, w)
	}
	sort.Strings(words)

	// Encode every list into one contiguous buffer.
	dict := make(map[string]listRef, len(words))
	var region []byte
	for _, w := range words {
		refs := ix.building[w]
		sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
		region = encodeList(region, dict, w, refs)
	}
	l, err := ix.write(words, dict, region)
	if err != nil {
		return err
	}
	ix.base = l
	ix.building = nil
	ix.built = true
	return nil
}

// Fold re-encodes the on-device lists followed by the tail into a fresh
// region and dictionary, frees the old ones, and empties the tail: the
// index afterwards equals a one-shot Build over the same documents. It
// reads only the index's own lists. References for which drop reports
// true are left out (nil drops nothing); drop runs with the index locked
// and must not call back into it. On error the index is unchanged.
func (ix *Index) Fold(drop func(ref uint64) bool) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.built {
		return fmt.Errorf("invindex: Fold before Build")
	}
	var old []byte
	if ix.base.regionBlocks > 0 {
		var err error
		old, err = ix.dev.ReadRun(ix.base.firstBlock, ix.base.regionBlocks)
		if err != nil {
			return fmt.Errorf("invindex: fold: read postings: %w", err)
		}
	}
	words := make([]string, 0, len(ix.base.dict)+len(ix.tail))
	for w := range ix.base.dict {
		words = append(words, w)
	}
	for w := range ix.tail {
		if _, inBase := ix.base.dict[w]; !inBase {
			words = append(words, w)
		}
	}
	sort.Strings(words)

	dict := make(map[string]listRef, len(words))
	region := make([]byte, 0, len(old))
	kept := words[:0]
	var refs []uint64
	for _, w := range words {
		refs = refs[:0]
		if r, ok := ix.base.dict[w]; ok {
			var good bool
			refs, good = decodeList(refs, old[r.offset:r.offset+uint64(r.length)], r.count)
			if !good {
				return fmt.Errorf("invindex: fold: corrupt posting list for %q", w)
			}
		}
		refs = append(refs, ix.tail[w]...)
		if drop != nil {
			live := refs[:0]
			for _, r := range refs {
				if !drop(r) {
					live = append(live, r)
				}
			}
			refs = live
		}
		if len(refs) == 0 {
			continue
		}
		region = encodeList(region, dict, w, refs)
		kept = append(kept, w)
	}
	l, err := ix.write(kept, dict, region)
	if err != nil {
		return err
	}
	ix.release(ix.base)
	ix.base = l
	ix.tail, ix.tailPostings = nil, 0
	return nil
}

// NumWords returns the number of distinct indexed words.
func (ix *Index) NumWords() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.built {
		return len(ix.building)
	}
	n := len(ix.base.dict)
	for w := range ix.tail {
		if _, inBase := ix.base.dict[w]; !inBase {
			n++
		}
	}
	return n
}

// DocFreq returns the posting count for word (0 if absent).
func (ix *Index) DocFreq(word string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.built {
		return len(ix.building[word])
	}
	return int(ix.base.dict[word].count) + len(ix.tail[word])
}

// PostingCounts returns the sizes a fold policy weighs: how many postings
// sit in the in-memory tail and how many in the on-device lists.
func (ix *Index) PostingCounts() (tail, base int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.tailPostings, ix.base.postings
}

// SizeBytes returns the on-device footprint (postings + dictionary).
func (ix *Index) SizeBytes() int64 { return ix.dev.SizeBytes() }

// SizeMB returns the footprint in megabytes (10^6 bytes).
func (ix *Index) SizeMB() float64 { return float64(ix.SizeBytes()) / 1e6 }

// Postings reads word's posting list from the device and returns the sorted
// object references ("I.RetrieveObjectPointersList(w)" of Figure 7): the
// on-device list followed by the word's tail. A word absent from the
// dictionary yields no I/O; the tail never does.
func (ix *Index) Postings(word string) ([]uint64, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.built {
		return nil, fmt.Errorf("invindex: Postings before Build")
	}
	var s scratch
	l, err := ix.readList(&s, word)
	if err != nil || l.size() == 0 {
		return nil, err
	}
	// A fresh slice: the caller owns its result, the tail keeps growing.
	return s.decode(make([]uint64, 0, l.size()), l)
}

// list is one word's posting list as Intersect holds it: its encoded
// on-device postings at raw[start:end] of a scratch, then its tail.
type list struct {
	word       string
	start, end int
	count      uint32
	tail       []uint64
}

// size is the list's number of postings.
func (l list) size() int { return int(l.count) + len(l.tail) }

// scratch is the memory one read of posting lists works in: the blocks of
// every list read back to back, and the running intersection. Intersect
// takes one from scratchPool, so a warm intersection allocates nothing but
// its result.
type scratch struct {
	raw   []byte
	lists []list
	refs  []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// readList reads the blocks of word's on-device list onto s.raw, with one
// ReadRunInto (the device charges exactly what a ReadRun would), and
// returns where the list sits there, with its tail. A word with no
// on-device list reads nothing. ix.mu must be held.
func (ix *Index) readList(s *scratch, word string) (list, error) {
	l := list{word: word, tail: ix.tail[word]}
	r, ok := ix.base.dict[word]
	if !ok || r.count == 0 {
		return l, nil
	}
	bs := uint64(ix.dev.BlockSize())
	firstIdx := r.offset / bs
	lastIdx := (r.offset + uint64(r.length) - 1) / bs
	nblocks := int(lastIdx-firstIdx) + 1
	at := len(s.raw)
	s.raw = slices.Grow(s.raw, nblocks*int(bs))[:at+nblocks*int(bs)]
	if err := ix.dev.ReadRunInto(ix.base.firstBlock+storage.BlockID(firstIdx), nblocks, s.raw[at:]); err != nil {
		return l, fmt.Errorf("invindex: read postings for %q: %w", word, err)
	}
	l.start = at + int(r.offset-firstIdx*bs)
	l.end = l.start + int(r.length)
	l.count = r.count
	return l, nil
}

// decode appends l's postings, on-device then tail, to dst.
func (s *scratch) decode(dst []uint64, l list) ([]uint64, error) {
	dst, good := decodeList(dst, s.raw[l.start:l.end], l.count)
	if !good {
		return dst, fmt.Errorf("invindex: corrupt posting list for %q", l.word)
	}
	return append(dst, l.tail...), nil
}

// keep intersects s.refs with l in place: it decodes l's on-device
// postings one at a time, only as far as the last of s.refs, keeps the refs
// it meets, and merges the ones past the list's end with its tail.
func (s *scratch) keep(l list) error {
	refs, data := s.refs, s.raw[l.start:l.end]
	out, i, pos := refs[:0], 0, 0
	var prev uint64
	for left := l.count; left > 0 && i < len(refs); left-- {
		// The list's deltas are mostly one byte: decode those inline.
		if pos < len(data) && data[pos] < 0x80 {
			prev += uint64(data[pos])
			pos++
		} else {
			delta, n := binary.Uvarint(data[pos:])
			if n <= 0 {
				return fmt.Errorf("invindex: corrupt posting list for %q", l.word)
			}
			prev += delta
			pos += n
		}
		if prev < refs[i] {
			continue
		}
		for i < len(refs) && refs[i] < prev {
			i++
		}
		if i < len(refs) && refs[i] == prev {
			out = append(out, prev)
			i++
		}
	}
	s.refs = intersectSorted(out, refs[i:], l.tail)
	return nil
}

// Intersect reads the posting lists of every word and returns their
// intersection (Figure 7 lines 1-3): the references of objects containing
// all the words. Lists are intersected shortest-first. An unknown word
// short-circuits to an empty result after reading the lists of the words
// before it, matching the algorithm's left-to-right evaluation. All lists
// are read under one lock, so the result reflects whole documents only.
// The result is the caller's: it shares no memory with the index.
func (ix *Index) Intersect(words []string) ([]uint64, error) {
	return ix.AppendIntersect(nil, words)
}

// AppendIntersect is Intersect appending its result to dst. The lists are
// read into pooled scratch, the shortest is decoded there and every other
// one intersected into it in place as it is decoded, so a caller that
// reuses dst makes a warm intersection allocate nothing.
func (ix *Index) AppendIntersect(dst []uint64, words []string) ([]uint64, error) {
	if len(words) == 0 {
		return dst, nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.built {
		return dst, fmt.Errorf("invindex: Intersect before Build")
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.raw, s.lists = s.raw[:0], s.lists[:0]
	for _, w := range words {
		l, err := ix.readList(s, w)
		if err != nil {
			return dst, err
		}
		if l.size() == 0 {
			return dst, nil
		}
		s.lists = append(s.lists, l)
	}
	slices.SortFunc(s.lists, func(a, b list) int { return cmp.Compare(a.size(), b.size()) })
	var err error
	if s.refs, err = s.decode(s.refs[:0], s.lists[0]); err != nil {
		return dst, err
	}
	for _, l := range s.lists[1:] {
		if err := s.keep(l); err != nil {
			return dst, err
		}
		if len(s.refs) == 0 {
			return dst, nil
		}
	}
	return append(dst, s.refs...), nil
}

// intersectSorted appends the elements common to the sorted lists a and b
// to dst. dst may be a[:0]: it never overtakes the element of a being read.
func intersectSorted(dst, a, b []uint64) []uint64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}
