package spatialkeyword

import (
	"math/rand"
	"strings"
	"testing"

	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/storage"
)

// capConfigs are the four text pipelines a Config selects.
var capConfigs = map[string]Config{
	"plain":              {SignatureBytes: 16},
	"stopwords":          {SignatureBytes: 16, RemoveStopwords: true},
	"stemming":           {SignatureBytes: 16, Stemming: true},
	"stopwords+stemming": {SignatureBytes: 16, RemoveStopwords: true, Stemming: true},
}

// capText draws a row for the term-frequency cap tests: words repeated up to
// past the cap's saturation, in mixed case, with stopwords, stemming
// variants, digits, non-ASCII letters that lower-case to ASCII (U+212A
// KELVIN SIGN to 'k', U+0130 to 'i'), invalid UTF-8, and the tab, newline,
// CR and NUL that the object file rewrites to spaces.
func capText(rng *rand.Rand) string {
	words := []string{
		"pool", "Pool", "POOL", "fishing", "fished", "fish", "the", "and", "a",
		"24h", "2024", "wifi", "\u212Aelvin", "kelvin", "\u0130stanbul", "istanbul",
		"café", "CAFÉ", "stück", "\xff", "x\xfey",
	}
	seps := []string{" ", " ", " ", "\t", "\n", "\r", "\x00", ", ", "-", "\r\n"}
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		w := words[rng.Intn(len(words))]
		reps := 1 + rng.Intn(3)
		switch rng.Intn(10) {
		case 0:
			reps = 1 + rng.Intn(300) // past the cap's saturation, sometimes
		case 1:
			reps = 250 + rng.Intn(10) // around it
		}
		for ; reps > 0; reps-- {
			b.WriteString(w)
			b.WriteString(seps[rng.Intn(len(seps))])
		}
	}
	return b.String()
}

// checkTFCaps asserts that every row's cap is the largest term frequency the
// ranked query can count in the row as stored — Analyzer.TermFreqsBytesInto
// over the sanitised text, for every pipeline term of the row and every
// extra query word — saturated as irscore.TFCap saturates it. A cap at least
// that large keeps the ranked bound admissible; equal to it, the bound is as
// tight as one byte per row allows. The rows in unknown must have cap 0,
// which keeps the paper's bound.
func checkTFCaps(t *testing.T, e *Engine, extra []string, unknown map[int]bool) {
	t.Helper()
	if got, want := len(e.tfCaps), e.store.NumObjects(); got != want {
		t.Fatalf("%d caps for %d rows", got, want)
	}
	var fold []byte
	for id := 0; id < e.store.NumObjects(); id++ {
		if unknown[id] {
			if e.tfCaps[id] != 0 {
				t.Fatalf("row %d: cap %d, want 0 (unknown)", id, e.tfCaps[id])
			}
			continue
		}
		o, err := e.store.GetByID(objstore.ID(id))
		if err != nil {
			t.Fatal(err)
		}
		terms := append(e.an.Unique(o.Text), e.an.Keywords(extra)...)
		counts := make([]int, len(terms))
		e.an.TermFreqsBytesInto(counts, []byte(o.Text), terms, &fold)
		maxTF := 0
		for i, n := range counts {
			if c := e.tfCaps[id]; n > int(c) && c != irscore.MaxTFCap {
				t.Fatalf("row %d %q: term %q occurs %d times, cap %d", id, o.Text, terms[i], n, c)
			}
			maxTF = max(maxTF, n)
		}
		if want := irscore.TFCap(maxTF); e.tfCaps[id] != want {
			t.Fatalf("row %d %q: cap %d, the row's largest term frequency gives %d", id, o.Text, e.tfCaps[id], want)
		}
	}
}

// TestTFCapBoundsStoredRow: on every pipeline, the cap an add records bounds
// every term frequency the ranked query counts in the stored row, and a
// reopen, which rebuilds the caps from the object file, rebuilds the same
// ones.
func TestTFCapBoundsStoredRow(t *testing.T) {
	for name, cfg := range capConfigs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(36))
			dir := t.TempDir()
			e, err := NewDurableEngine(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				if _, err := e.Add([]float64{rng.Float64() * 100, rng.Float64() * 100}, capText(rng)); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			checkTFCaps(t, e, []string{"\u212Aelvin", "ISTANBUL", "fishes", "the"}, nil)
			atAdd := append([]uint8(nil), e.tfCaps...)
			saturated := 0
			for _, c := range atAdd {
				if c == irscore.MaxTFCap {
					saturated++
				}
			}
			if saturated == 0 {
				t.Fatal("no row saturated its cap: the generator misses the saturation case")
			}
			if err := e.Save(); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenEngine(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if string(re.tfCaps) != string(atAdd) {
				t.Fatalf("caps rebuilt at reopen differ from the caps set at add:\n%v\n%v", re.tfCaps, atAdd)
			}
			checkTFCaps(t, re, nil, nil)
		})
	}
}

// FuzzTFCapAdmissible: for any row text and query word, on every pipeline,
// the ranked query counts no term of the stored row more often than the
// row's cap allows.
func FuzzTFCapAdmissible(f *testing.F) {
	f.Add("Pool pool POOL\tpool\npool", "pool")
	f.Add("fishing fished fisher the the the", "fishes")
	f.Add("\u212Aelvin kelvin KELVIN\x00kelvin", "Kelvin")
	f.Add("\u0130stanbul istanbul\r\nISTANBUL", "istanbul")
	f.Add("24h 24H 2024 24h", "24h")
	f.Add("café CAFÉ x\xffy x\xfey", "café")
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
			if _, err := e.Add([]float64{1, 2}, text); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			checkTFCaps(t, e, []string{word}, nil)
		}
	})
}

// TestTFCapSkipsAFailedAdd: an add whose row reached the object file's
// buffer but whose block write failed consumes its ID without recording a
// cap. That row keeps the unknown cap 0, and every later row's cap still
// lands at its own ID.
func TestTFCapSkipsAFailedAdd(t *testing.T) {
	e, err := NewEngine(Config{SignatureBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Repeat("pool spa ", 40) + "pool"
	if !e.InjectFault(func(op storage.Op, id storage.BlockID) error {
		if op == storage.OpWrite {
			return &storage.FaultError{Kind: storage.KindWriteError, Op: op, Block: id}
		}
		return nil
	}) {
		t.Fatal("InjectFault refused")
	}
	failed := -1
	for i := 0; failed < 0; i++ {
		if i > 100 {
			t.Fatal("no add met the write fault")
		}
		if _, err := e.Add([]float64{float64(i), 1}, text); err != nil {
			failed = e.store.NumObjects() - 1
		}
	}
	e.InjectFault(nil)
	for i := 0; i < 5; i++ {
		if _, err := e.Add([]float64{float64(i), 2}, strings.Repeat("cafe ", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	checkTFCaps(t, e, nil, map[int]bool{failed: true})
}
