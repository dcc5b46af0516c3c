package spatialkeyword

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/textutil"
	"spatialkeyword/internal/wal"
)

// checkRowTable asserts that every row's entry in the engine's row table is
// what a query would find reading the row as stored: its terms are the
// pipeline's distinct terms of the stored (sanitised) text, each counted as
// Analyzer.TermFreqsInto counts it there; every extra query word counts
// and holds (CountsInto, HoldsAll) exactly as TermFreqsInto and
// ContainsTermsBytes find it; and the point is the stored point.
func checkRowTable(t *testing.T, e *Engine, extra []string) {
	t.Helper()
	if got, want := e.rows.Terms.Len(), e.store.NumObjects(); got != want {
		t.Fatalf("row table holds %d rows, the object file %d", got, want)
	}
	for id := 0; id < e.store.NumObjects(); id++ {
		o, err := e.store.GetByID(objstore.ID(id))
		if err != nil {
			t.Fatal(err)
		}
		text := []byte(o.Text)
		if p := e.rows.Point(id); !p.Equal(geo.Point(o.Point)) {
			t.Fatalf("row %d: point %v, stored %v", id, p, o.Point)
		}
		ids, counts := e.rows.Terms.Terms(id, nil, nil)
		words := make([]string, len(ids))
		for i, tid := range ids {
			words[i] = e.rows.Vocab.Word(tid)
		}
		want := e.an.Unique(o.Text)
		if !sameSet(words, want) {
			t.Fatalf("row %d %q: terms %q, the stored row holds %q", id, o.Text, words, want)
		}
		stored := make([]int, len(words))
		e.an.TermFreqsInto(stored, o.Text, words)
		for i := range words {
			if int(counts[i]) != stored[i] {
				t.Fatalf("row %d %q: term %q counted %d, the stored row holds it %d times", id, o.Text, words[i], counts[i], stored[i])
			}
		}
		kws := e.an.Keywords(extra)
		qids := make([]uint32, len(kws))
		for i, w := range kws {
			var ok bool
			if qids[i], ok = e.rows.Vocab.TermID(w); !ok {
				qids[i] = textutil.NoTerm
			}
		}
		got := make([]int, len(kws))
		e.rows.Terms.CountsInto(got, id, qids)
		wantCounts := make([]int, len(kws))
		e.an.TermFreqsInto(wantCounts, o.Text, kws)
		for i, w := range kws {
			if got[i] != wantCounts[i] {
				t.Fatalf("row %d %q: query word %q counted %d, the stored row holds it %d times", id, o.Text, w, got[i], wantCounts[i])
			}
			holds := e.rows.Terms.HoldsAll(id, qids[i:i+1])
			if contains := e.an.ContainsTermsBytes(text, kws[i:i+1]); holds != contains {
				t.Fatalf("row %d %q: holds %q %v, ContainsTermsBytes says %v", id, o.Text, w, holds, contains)
			}
		}
		sorted := slices.Clone(qids)
		slices.Sort(sorted)
		if holds, contains := e.rows.Terms.HoldsAll(id, sorted), e.an.ContainsTermsBytes(text, kws); holds != contains {
			t.Fatalf("row %d %q: holds all of %q %v, ContainsTermsBytes says %v", id, o.Text, kws, holds, contains)
		}
	}
}

// sameSet reports whether a and b hold the same strings.
func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// rowTableWords are the query words the row-table checks probe: stemmed
// forms, case and non-ASCII variants, a stopword and one no row holds.
var rowTableWords = []string{"fishes", "FISHING", "pool", "Kelvin", "ISTANBUL", "café", "the", "24h", "nowhere"}

// TestRowTableMatchesStoredRow: on every pipeline, every route into the
// engine — a local add, a follower's ApplyReplicated of the shipped records,
// a reopen that rebuilds the first half from the object file and replays
// the rest from the write-ahead log, and a reopen that rebuilds every row
// from the object file — leaves each row's term IDs, counts and point in
// the row table exactly as the stored row holds them, for rows with
// non-ASCII letters, invalid UTF-8, the tabs, newlines, CRs and NULs the
// object file rewrites to spaces, stemmed forms, and words repeated past
// 255 times.
func TestRowTableMatchesStoredRow(t *testing.T) {
	for name, cfg := range capConfigs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(54))
			dir := t.TempDir()
			cfg.WAL = true
			e, err := NewDurableEngine(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			var shipped []wal.Record
			rotated := -1
			e.SetReplicationHooks(func(_ uint64, rec wal.Record) { shipped = append(shipped, rec) },
				func(uint64) { rotated = len(shipped) })
			const rows = 200
			for i := 0; i < rows; i++ {
				if i == rows/2 {
					if err := e.Save(); err != nil {
						t.Fatal(err)
					}
				}
				text := capText(rng)
				if i%50 == 7 {
					text = strings.Repeat("Fishing\tfished\n", 130) + "x\xfey café " + text
				}
				if _, err := e.Add([]float64{rng.Float64() * 100, rng.Float64() * 100}, text); err != nil {
					t.Fatal(err)
				}
			}
			check := func(got *Engine) {
				t.Helper()
				if err := got.Flush(); err != nil { // rows are read back synced
					t.Fatal(err)
				}
				checkRowTable(t, got, rowTableWords)
			}
			check(e)

			follower, err := NewDurableEngine(cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			for i, rec := range shipped {
				if i == rotated {
					if err := follower.Save(); err != nil {
						t.Fatal(err)
					}
				}
				if err := follower.ApplyReplicated(rec); err != nil {
					t.Fatal(err)
				}
			}
			check(follower)

			if err := e.Close(); err != nil { // no Save: the reopen replays the second half
				t.Fatal(err)
			}
			re, err := OpenEngine(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := re.WALInfo().ReplayedRecords; got != rows/2 {
				t.Fatalf("reopen replayed %d records, want %d", got, rows/2)
			}
			check(re)
			if err := re.Save(); err != nil {
				t.Fatal(err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re, err = OpenEngine(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			check(re)
		})
	}
}

// FuzzRowTableMatchesStoredRow: for any row text and query word, on every
// pipeline, the row table holds what the stored row holds (checkRowTable),
// for the row added alone and beside one that repeats a word 300 times.
func FuzzRowTableMatchesStoredRow(f *testing.F) {
	f.Add("Pool pool POOL\tpool\npool", "pool")
	f.Add("fishing fished fisher the the the", "fishes")
	f.Add("\u212Aelvin kelvin KELVIN\x00kelvin", "Kelvin")
	f.Add("İstanbul istanbul\r\nISTANBUL", "istanbul")
	f.Add("café CAFÉ x\xffy x\xfey \xe2\x82", "café")
	f.Add(strings.Repeat("a ", 300), "a")
	f.Fuzz(func(t *testing.T, text, word string) {
		if len(text) > 4096 {
			t.Skip("longer than a row needs to be")
		}
		for _, cfg := range capConfigs {
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range []string{text, strings.Repeat(word+" ", 300) + text} {
				if _, err := e.Add([]float64{1, 2}, row); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			checkRowTable(t, e, []string{word, "pool"})
		}
	})
}
