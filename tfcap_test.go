package spatialkeyword

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/wal"
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

// checkTFCaps asserts that every row's term-frequency summary bounds the
// term frequencies the ranked query can count in the row as stored —
// Analyzer.TermFreqsInto over the sanitised text, for every pipeline
// term of the row and every extra query word. The cap must be the largest of
// them, saturated as irscore.TFCap saturates it: at least that large keeps
// the ranked bound admissible, and equal to it, the bound is as tight as one
// byte per row allows. Every term counted twice or more must have both its
// bits in the row's repeated-term mask, and weigh at most RowTF.Weight. The
// rows in unknown must have the zero summary, which keeps the paper's bound.
// The table's TFCeiling, which bounds the ranked query's node entries, must
// be the largest cap of all its rows.
func checkTFCaps(t *testing.T, e *Engine, extra []string, unknown map[int]bool) {
	t.Helper()
	if got, want := len(e.rows.TFs), e.store.NumObjects(); got != want {
		t.Fatalf("%d term-frequency summaries for %d rows", got, want)
	}
	for id := 0; id < e.store.NumObjects(); id++ {
		row := &e.rows.TFs[id]
		if unknown[id] {
			if *row != (irscore.RowTF{}) {
				t.Fatalf("row %d: summary %+v, want the zero (unknown) one", id, *row)
			}
			continue
		}
		o, err := e.store.GetByID(objstore.ID(id))
		if err != nil {
			t.Fatal(err)
		}
		terms := append(e.an.Unique(o.Text), e.an.Keywords(extra)...)
		counts := make([]int, len(terms))
		e.an.TermFreqsInto(counts, o.Text, terms)
		maxTF := 0
		for i, n := range counts {
			if c := row.Cap(); n > int(c) && c != irscore.MaxTFCap {
				t.Fatalf("row %d %q: term %q occurs %d times, cap %d", id, o.Text, terms[i], n, c)
			}
			p := irscore.ProbeTerm(terms[i])
			if n >= 2 && !row.MayRepeat(p) {
				t.Fatalf("row %d %q: term %q occurs %d times, but its mask bits %v are not both set", id, o.Text, terms[i], n, p)
			}
			if w := row.Weight(p); w < irscore.TFWeight(n) {
				t.Fatalf("row %d %q: term %q occurs %d times, weighs %v, bound %v", id, o.Text, terms[i], n, irscore.TFWeight(n), w)
			}
			maxTF = max(maxTF, n)
		}
		if want := irscore.TFCap(maxTF); row.Cap() != want {
			t.Fatalf("row %d %q: cap %d, the row's largest term frequency gives %d", id, o.Text, row.Cap(), want)
		}
	}
	var ceiling uint8
	for i := range e.rows.TFs {
		ceiling = max(ceiling, e.rows.TFs[i].Cap())
	}
	if e.rows.TFCeiling != ceiling {
		t.Fatalf("row table's term-frequency ceiling %d, its rows' largest cap %d", e.rows.TFCeiling, ceiling)
	}
}

// TestTFCapBoundsStoredRow: on every pipeline, the term-frequency summary
// every route into the engine records bounds every term frequency the ranked
// query counts in the stored row, and all routes record the same summaries:
// a local add, a follower's ApplyReplicated of the shipped records, a reopen
// that rebuilds the first half from the object file and replays the rest
// from the write-ahead log, and a reopen that rebuilds every row from the
// object file.
func TestTFCapBoundsStoredRow(t *testing.T) {
	for name, cfg := range capConfigs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(36))
			dir := t.TempDir()
			cfg.WAL = true
			e, err := NewDurableEngine(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			var shipped []wal.Record
			rotated := -1 // the follower saves where the leader's Save rotated its log
			e.SetReplicationHooks(func(_ uint64, rec wal.Record) { shipped = append(shipped, rec) },
				func(uint64) { rotated = len(shipped) })
			const rows = 300
			for i := 0; i < rows; i++ {
				if i == rows/2 {
					if err := e.Save(); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := e.Add([]float64{rng.Float64() * 100, rng.Float64() * 100}, capText(rng)); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			checkTFCaps(t, e, []string{"\u212Aelvin", "ISTANBUL", "fishes", "the"}, nil)
			atAdd := slices.Clone(e.rows.TFs)
			saturated, repeated := 0, 0
			for _, r := range atAdd {
				if r.Cap() == irscore.MaxTFCap {
					saturated++
				}
				if r.Cap() > 1 {
					repeated++
				}
			}
			if saturated == 0 || repeated == len(atAdd) {
				t.Fatalf("%d rows saturate their cap, %d of %d repeat a term: the generator misses a case", saturated, repeated, len(atAdd))
			}
			same := func(route string, got *Engine) {
				t.Helper()
				if err := got.Flush(); err != nil { // rows are read back synced
					t.Fatal(err)
				}
				if !slices.Equal(got.rows.TFs, atAdd) {
					t.Fatalf("summaries after %s differ from the summaries set at add", route)
				}
				checkTFCaps(t, got, nil, nil)
			}

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
			if err := follower.SyncWAL(); err != nil {
				t.Fatal(err)
			}
			same("ApplyReplicated", follower)

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
			same("a reopen with a log replay", re)
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
			same("a reopen", re)
		})
	}
}

// FuzzTFCapAdmissible: for any row text and query word, on every pipeline,
// the ranked query counts no term of the stored row more often than the
// row's cap allows, nor counts a term twice that the row's mask misses.
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
// term-frequency summary. That row keeps the unknown zero summary, and every
// later row's summary still lands at its own ID.
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
