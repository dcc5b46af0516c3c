package textutil_test

import (
	"slices"
	"strings"
	"testing"

	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// refVocab is the vocabulary spelled with maps over the rune reference
// pipeline: what Vocabulary computed before it interned words and walked
// folded rows.
type refVocab struct {
	df      map[string]int
	numDocs int
}

// add folds one document in and returns its term-frequency summary,
// distinct terms and term frequencies.
func (r *refVocab) add(a *textutil.Analyzer, text string) (irscore.RowTF, []string, map[string]int) {
	tf := make(map[string]int)
	maxTF := 0
	var row irscore.RowTF
	for _, tok := range textutil.TokensRunes(a, text) {
		tf[tok]++
		maxTF = max(maxTF, tf[tok])
		switch tf[tok] {
		case 1:
			r.df[tok]++
		case 2:
			row.AddRepeated(tok)
		}
	}
	row.SetCap(maxTF)
	r.numDocs++
	return row, textutil.UniqueRunes(a, text), tf
}

// sampleRows returns the texts of a generated dataset.
func sampleRows(t *testing.T, spec dataset.Spec) []string {
	t.Helper()
	store := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
	if _, err := dataset.Generate(spec, store); err != nil {
		t.Fatal(err)
	}
	var rows []string
	if err := store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
		rows = append(rows, o.Text)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// nonASCIIRows rewrites rows into mixed-case text holding non-ASCII words:
// accented ones, runes that lower-case to ASCII (U+212A KELVIN SIGN, U+0130)
// or to a longer encoding (U+023A), CJK, invalid UTF-8 and non-ASCII
// separators, several of them repeated within a row.
func nonASCIIRows(rows []string) []string {
	extra := []string{"Café", "CAFÉ", "Kitten", "kitten", "İstanbul", "Straße", "ZÜRICH", "東京", "Ⱥa", "ⱥa", "ǅemal", "\xff\xfe", "—", "４２"}
	out := make([]string, len(rows))
	for i, row := range rows {
		words := strings.Fields(row)
		for j := range words {
			if j%3 == i%3 {
				words[j] = strings.ToUpper(words[j][:1]) + words[j][1:]
			}
		}
		for j := 0; j < 1+i%5; j++ {
			words = append(words, extra[(i+j*7)%len(extra)])
		}
		out[i] = strings.Join(words, "  ")
	}
	return out
}

// TestVocabularyMatchesMapReference holds the interning vocabulary to the map
// reference on Restaurants, Hotels and non-ASCII samples, on the plain and
// the stemming pipelines: every word's document frequency, the word and
// document counts, every row's term-frequency summary bit for bit, and the
// distinct terms and term frequencies AddDocWith returns.
func TestVocabularyMatchesMapReference(t *testing.T) {
	restaurants := sampleRows(t, dataset.Restaurants(0.002))
	corpora := []struct {
		name string
		rows []string
	}{
		{"restaurants", restaurants},
		{"hotels", sampleRows(t, dataset.Hotels(0.002))},
		{"nonascii", nonASCIIRows(restaurants)},
	}
	pipelines := []struct {
		name string
		a    *textutil.Analyzer
	}{
		{"plain", nil},
		{"stemming", &textutil.Analyzer{Stemming: true, Stopwords: textutil.DefaultStopwords()}},
	}
	for _, c := range corpora {
		for _, p := range pipelines {
			t.Run(c.name+"/"+p.name, func(t *testing.T) {
				v := textutil.NewVocabulary()
				ref := &refVocab{df: make(map[string]int)}
				for i, text := range c.rows {
					ids, counts := v.AddDocWith(p.a, text)
					got := irscore.RowTFOf(counts, func(j int) uint64 { return v.Hash(ids[j]) })
					want, wantTerms, wantTF := ref.add(p.a, text)
					if got != want {
						t.Fatalf("row %d: RowTF %+v, want %+v", i, got, want)
					}
					terms := make([]string, len(ids))
					for j, id := range ids {
						terms[j] = v.Word(id)
						if int(counts[j]) != wantTF[terms[j]] {
							t.Fatalf("row %d: %q counted %d, want %d", i, terms[j], counts[j], wantTF[terms[j]])
						}
					}
					if !slices.Equal(terms, wantTerms) {
						t.Fatalf("row %d: terms %q, want %q", i, terms, wantTerms)
					}
				}
				if v.NumDocs() != ref.numDocs || v.NumWords() != len(ref.df) {
					t.Fatalf("%d docs, %d words; want %d, %d", v.NumDocs(), v.NumWords(), ref.numDocs, len(ref.df))
				}
				for w, df := range ref.df {
					if got := v.DocFreq(w); got != df {
						t.Errorf("DocFreq(%q) = %d, want %d", w, got, df)
					}
				}
			})
		}
	}
}
