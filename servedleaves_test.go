package spatialkeyword_test

import (
	"fmt"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/storage"
)

// TestServedLeavesMatchStoredPayloads holds a served engine's tree, whose
// leaves name each row by its ID and store its point and no signature (the
// row table keeps them), to the rows it indexes, and its answers to brute
// force: packed from a load and saved, reopened, then grown by Guttman
// inserts, with rows queued and rows deleted, saved and reopened again.
// After each step the tree keeps every structural invariant, every leaf is
// one block, a full one too, each leaf entry is its row's point and each
// leaf's signature columns are its rows' DocSignatures (CheckServedTree);
// and every distance-first and ranked top-k answers what brute force over
// the live rows, queued ones included, answers, reading exactly the rows it
// returns.
func TestServedLeavesMatchStoredPayloads(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec dataset.Spec
		sig  int
	}{
		{"restaurants", dataset.Restaurants(0.03), 64},
		{"hotels", dataset.Hotels(0.02), 189},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
			stats, err := dataset.Generate(tc.spec, store)
			if err != nil {
				t.Fatal(err)
			}
			var rows []spatialkeyword.Object
			if err := store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
				rows = append(rows, spatialkeyword.Object{ID: uint64(o.ID), Point: o.Point, Text: o.Text})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			words := stats.WordsByFreq()
			frequent, mid := words[:len(words)/50], words[len(words)/50:len(words)/5]
			cfg := spatialkeyword.Config{SignatureBytes: tc.sig}
			dir := t.TempDir()
			e, err := spatialkeyword.NewDurableEngine(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { e.Close() }()
			m := &diffModel{deleted: map[uint64]bool{}}
			add := func(o spatialkeyword.Object) {
				t.Helper()
				if id, err := e.Add(o.Point, o.Text); err != nil || id != o.ID {
					t.Fatalf("add of row %d: ID %d, %v", o.ID, id, err)
				}
				m.rows = append(m.rows, o)
			}
			reopen := func() {
				t.Helper()
				if err := e.Save(); err != nil {
					t.Fatal(err)
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				if e, err = spatialkeyword.OpenEngine(dir); err != nil {
					t.Fatal(err)
				}
			}
			check := func(step string) {
				t.Helper()
				spatialkeyword.CheckServedTree(t, step, e)
				var deleted []uint64
				for id := range m.deleted {
					deleted = append(deleted, id)
				}
				oracle := newRankedOracle(cfg.Analyzer(), m.rows, deleted)
				for q := 0; q < 48; q++ {
					p := rows[(q*7919)%len(rows)].Point
					kws := []string{frequent[q*7%len(frequent)], mid[q*13%len(mid)], mid[q*29%len(mid)]}
					k := 10
					if q%10 == 0 {
						k = 100
					}
					where := fmt.Sprintf("%s: top %d %v", step, k, kws[:2])
					s, err := e.Search(p, kws[:2]...)
					if err != nil {
						t.Fatal(err)
					}
					c := &pullCounter[spatialkeyword.Result]{s: s, key: func(r spatialkeyword.Result) float64 { return r.Dist }}
					res, err := spatialkeyword.FirstK(nil, c, k, nil)
					s.Close()
					if err != nil {
						t.Fatal(err)
					}
					if got, want := fmt.Sprint(ids(res)), fmt.Sprint(m.topK(k, p, kws[:2])); got != want {
						t.Fatalf("%s: %s, brute force %s", where, got, want)
					}
					checkReads(t, where, k, c.keys, s.Stats())

					where = fmt.Sprintf("%s: ranked %d %v", step, k, kws)
					rs, err := e.SearchRanked(p, kws...)
					if err != nil {
						t.Fatal(err)
					}
					rc := &pullCounter[spatialkeyword.RankedResult]{s: rs, key: func(r spatialkeyword.RankedResult) float64 { return r.Score }}
					ranked, err := spatialkeyword.FirstK(nil, rc, k, nil)
					rs.Close()
					if err != nil {
						t.Fatal(err)
					}
					if diff := sameRanked(ranked, oracle.topK(k, p, kws, false)); diff != "" {
						t.Fatalf("%s: %s", where, diff)
					}
					checkReads(t, where, k, rc.keys, rs.Stats())
				}
			}

			pack := len(rows) * 9 / 10
			for _, o := range rows[:pack] {
				add(o)
			}
			reopen()
			check("pack")
			// Grow past the pack: every leaf's worth of adds goes to the tree
			// by Guttman inserts, the rest stays queued; delete tree rows
			// (some leaves condense) and queued ones.
			for _, o := range rows[pack:] {
				add(o)
			}
			for id := uint64(0); id < uint64(len(rows)); id += 5 {
				if id < uint64(pack/3) || id >= uint64(len(rows)-40) {
					if err := e.Delete(id); err != nil {
						t.Fatal(err)
					}
					m.deleted[id] = true
				}
			}
			if spatialkeyword.QueuedRows(e) == 0 {
				t.Fatal("no row is queued")
			}
			check("grown")
			reopen()
			check("reopened")
		})
	}
}
