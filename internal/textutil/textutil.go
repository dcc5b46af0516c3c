// Package textutil provides the text processing used by the keyword side of
// the library: tokenization of object descriptions, vocabulary construction,
// and per-document term statistics.
//
// The paper treats an object's text T.t as "the concatenation of the name
// and amenities attributes" and matches keywords case-insensitively (its
// running example matches "internet" against "Internet" and
// "wireless Internet"). Tokenize therefore lower-cases input and splits on
// any non-alphanumeric rune.
package textutil

import (
	"encoding/binary"
	"hash/maphash"
	"sync"
	"unicode"
	"unicode/utf8"

	"spatialkeyword/internal/sigfile"
)

// Tokenize splits a document into lower-case word tokens. Runs of letters
// and digits form tokens; every other rune is a separator. The result
// preserves document order and may contain duplicates (term frequency
// information); (*Analyzer)(nil).Unique gives the distinct-word set.
func Tokenize(text string) []string {
	var plain *Analyzer
	return plain.Tokens(text)
}

// foldedTab classifies a byte of a folded row (see walker): letters, digits
// and every byte of a multi-byte rune belong to a token, anything else
// separates tokens.
var foldedTab = func() (t [256]bool) {
	for c := range t {
		t[c] = c >= utf8.RuneSelf || asciiTab[c]&asciiTokenBit != 0
	}
	return t
}()

// walker is the one tokenizer of the package. It folds a row into its own
// buffer — lower-cased, every separator rune that is not ASCII replaced by a
// space — and then hands out the row's pipeline terms one at a time, as
// views into that buffer, allocating nothing once its buffers have grown.
//
// ASCII is folded eight bytes at a time and split on asciiTab. From its
// first byte ≥ 0x80 a row is folded a rune at a time, which stays exact
// where a non-ASCII letter lower-cases to an ASCII one (U+212A KELVIN SIGN
// to 'k', U+0130 to 'i') or changes its encoded length; its tokens are the
// byte runs foldedTab marks. FuzzTokenizeMatchesRunePath holds every entry
// to the per-rune definition of a token.
type walker struct {
	a    *Analyzer
	fold []byte // the folded row
	stem []byte // the last stemmed term
	at   int    // where the next token search starts in fold
}

// reset folds text and starts a walk over its terms through pipeline a. The
// walker only reads text, so a view of a string will do. OR-ing each
// letter's high lane bit (letterHi), shifted down to 0x20, into an ASCII
// word lower-cases it.
func (w *walker) reset(a *Analyzer, text []byte) {
	w.a, w.at = a, 0
	if cap(w.fold) < len(text) {
		w.fold = make([]byte, len(text), len(text)+len(text)/8)
	}
	fold := w.fold[:len(text)]
	i := 0
	for ; i+8 <= len(text); i += 8 {
		c := binary.LittleEndian.Uint64(text[i:])
		if c&hiBits != 0 {
			break
		}
		binary.LittleEndian.PutUint64(fold[i:], c|letterHi(c)>>2)
	}
	for ; i < len(text) && text[i] < utf8.RuneSelf; i++ {
		fold[i] = asciiTab[text[i]] &^ asciiTokenBit
	}
	fold = fold[:i]
	for i < len(text) {
		if c := text[i]; c < utf8.RuneSelf {
			fold = append(fold, asciiTab[c]&^asciiTokenBit)
			i++
			continue
		}
		r, sz := utf8.DecodeRune(text[i:])
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			fold = utf8.AppendRune(fold, unicode.ToLower(r))
		} else {
			fold = append(fold, ' ')
		}
		i += sz
	}
	w.fold = fold
}

// next returns the row's next pipeline term: the next token, dropped if it
// is a stopword and stemmed if the pipeline stems. The term is valid until
// the following call; ok is false once the row is exhausted.
func (w *walker) next() (term []byte, ok bool) {
	for {
		fold, i := w.fold, w.at
		for i < len(fold) && !foldedTab[fold[i]] {
			i++
		}
		start := i
		for i < len(fold) && foldedTab[fold[i]] {
			i++
		}
		w.at = i
		if start == i {
			return nil, false
		}
		tok := fold[start:i]
		a := w.a
		if a == nil {
			return tok, true
		}
		if a.Stopwords != nil {
			if _, stop := a.Stopwords[string(tok)]; stop {
				continue
			}
		}
		if a.Stemming && len(tok) > 2 {
			// The stem is built apart from the row: a Porter step can
			// lengthen a word ("-bl" → "-ble"), which in place would
			// overwrite the bytes after it.
			w.stem = stem(append(w.stem[:0], tok...))
			return w.stem, true
		}
		return tok, true
	}
}

// scratch is the working space of one analysis call that returns strings
// (Tokens, Unique, TermFreqs, Keyword): a walker, and Unique's seen-set and
// distinct terms. The strings those calls return are copies of the terms,
// so none of them pins a folded row.
type scratch struct {
	walker
	seen  map[string]struct{}
	terms []string
}

var scratchPool = sync.Pool{New: func() any { return &scratch{seen: make(map[string]struct{})} }}

// walk takes a scratch from the pool and starts its walker over text.
func walk(a *Analyzer, text string) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.reset(a, viewBytes(text))
	return sc
}

// release returns sc to the pool, holding no string of the call that used
// it.
func (sc *scratch) release() {
	clear(sc.seen)
	clear(sc.terms)
	sc.terms = sc.terms[:0]
	scratchPool.Put(sc)
}

// ContainsAll reports whether the document contains every query keyword.
// This is the conjunctive ("Boolean keyword query") check of the paper's
// distance-first queries, and the false-positive filter of IR2TopK line 21.
// Keywords are normalized with the same rules as Tokenize. It builds the
// document's token set: the R-Tree baseline's filter, and the reference the
// scan kernels are tested against.
func ContainsAll(text string, keywords []string) bool {
	if len(keywords) == 0 {
		return true
	}
	var plain *Analyzer
	set := TokenSet(text)
	for _, w := range keywords {
		if _, ok := set[plain.Keyword(w)]; !ok {
			return false
		}
	}
	return true
}

// TokenSet returns the distinct-word set of a document.
func TokenSet(text string) map[string]struct{} {
	tokens := Tokenize(text)
	set := make(map[string]struct{}, len(tokens))
	for _, tok := range tokens {
		set[tok] = struct{}{}
	}
	return set
}

// Vocabulary accumulates corpus-level term statistics: the set of distinct
// words and their document frequencies. It backs Table 1's "total # unique
// words" column and the idf component of the IR score. It interns every
// word once, to a dense term ID (the order words first appeared in), and
// hashes it once there for the signatures that hold it (Hash).
//
// AddDocWith changes the vocabulary and uses its working space, so it needs
// exclusion from every other call; DocFreq, NumDocs, NumWords, Word and
// Hash only read it and may run concurrently with each other.
type Vocabulary struct {
	// slots is an open-addressing hash table over words, probed linearly:
	// a slot holds a term ID plus one, or 0 when empty. Its length is a
	// power of two and it is at most half full. Beside the words it costs
	// 4 to 8 bytes per word, where a map[string]uint32 would hold a second
	// string header per word; a served engine keeps one vocabulary per
	// shard for as long as it runs.
	slots   []uint32
	seed    maphash.Seed
	words   []string // by term ID
	hashes  []uint64 // by term ID: the word's sigfile.Hash, its signature bits' one input
	docFreq []int32  // by term ID: the documents holding the word
	numDocs int

	// AddDocWith's working space: the walker, each word's frequency in the
	// document being folded (by term ID; zero between documents), and the
	// document's distinct term IDs and their frequencies.
	walk   walker
	tf     []int32
	doc    []uint32
	counts []int32
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{seed: maphash.MakeSeed()}
}

// find returns the term ID of word, or, with ok false, the empty slot where
// it would go. The slots must not be full.
func (v *Vocabulary) find(word []byte) (slot int, id uint32, ok bool) {
	mask := len(v.slots) - 1
	for i := int(maphash.Bytes(v.seed, word)) & mask; ; i = (i + 1) & mask {
		s := v.slots[i]
		if s == 0 {
			return i, 0, false
		}
		if v.words[s-1] == string(word) {
			return i, s - 1, true
		}
	}
}

// intern returns the term ID of term, adding the word if it is new.
func (v *Vocabulary) intern(term []byte) uint32 {
	if 2*(len(v.words)+1) > len(v.slots) {
		v.slots = make([]uint32, max(64, 2*len(v.slots)))
		for id, w := range v.words {
			slot, _, _ := v.find(viewBytes(w))
			v.slots[slot] = uint32(id) + 1
		}
	}
	slot, id, ok := v.find(term)
	if ok {
		return id
	}
	id = uint32(len(v.words))
	v.slots[slot] = id + 1
	v.words = append(v.words, string(term))
	v.hashes = append(v.hashes, sigfile.Hash(v.words[id]))
	v.docFreq = append(v.docFreq, 0)
	v.tf = append(v.tf, 0)
	return id
}

// AddDocWith folds one document in through the given analyzer pipeline
// (nil is plain tokenization). It returns the document's distinct term IDs
// in first-occurrence order and, at the same index, each one's pipeline
// term frequency in the document — both the vocabulary's working space,
// valid until the next AddDocWith. Every document of a corpus must go
// through the same pipeline. Once the vocabulary holds the document's
// words, it allocates nothing.
func (v *Vocabulary) AddDocWith(a *Analyzer, text string) (terms []uint32, counts []int32) {
	v.walk.reset(a, viewBytes(text))
	doc := v.doc[:0]
	for {
		term, ok := v.walk.next()
		if !ok {
			break
		}
		id := v.intern(term)
		if v.tf[id]++; v.tf[id] == 1 {
			v.docFreq[id]++
			doc = append(doc, id)
		}
	}
	counts = v.counts[:0]
	for _, id := range doc {
		counts = append(counts, v.tf[id])
		v.tf[id] = 0
	}
	v.doc, v.counts = doc, counts
	v.numDocs++
	return doc, counts
}

// Word returns the word with the given term ID.
func (v *Vocabulary) Word(id uint32) string { return v.words[id] }

// Hash returns sigfile.Hash of the word with the given term ID, computed
// once, when the word was interned.
func (v *Vocabulary) Hash(id uint32) uint64 { return v.hashes[id] }

// TermID returns the term ID of word (normalized), ok false when no
// document added holds it.
func (v *Vocabulary) TermID(word string) (id uint32, ok bool) {
	if len(v.slots) == 0 {
		return 0, false
	}
	_, id, ok = v.find(viewBytes(word))
	return id, ok
}

// NumDocs returns the number of documents added.
func (v *Vocabulary) NumDocs() int { return v.numDocs }

// NumWords returns the number of distinct words across the corpus.
func (v *Vocabulary) NumWords() int { return len(v.words) }

// DocFreq returns the number of documents containing word (normalized). It
// allocates nothing for a word already normalized.
func (v *Vocabulary) DocFreq(word string) int {
	if len(v.slots) == 0 {
		return 0
	}
	var plain *Analyzer
	if _, id, ok := v.find(viewBytes(plain.Keyword(word))); ok {
		return int(v.docFreq[id])
	}
	return 0
}
