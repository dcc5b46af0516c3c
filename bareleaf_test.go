package spatialkeyword

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"spatialkeyword/internal/core"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
)

// TestServedLeavesMatchStoredPayloads pins a served tree, whose leaves store
// no signature (the row table keeps them), bit for bit to a tree built by
// the same operations whose leaves store theirs: packed from a load and
// saved, reopened, then grown by Guttman inserts, with rows queued and rows
// deleted, saved and reopened again. After each step every leaf's signature
// columns equal the DocSignature of its rows' words, the stored tree's
// included; every interior entry's rectangle and signature and the levels'
// signature lengths are the stored tree's; every query's answers and its
// traversal counters (all but the blocks) are the stored tree's; and a
// full served leaf is one block.
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
			rows, stats := packRows(t, tc.spec)
			words := stats.WordsByFreq()
			frequent, mid := words[:len(words)/50], words[len(words)/50:len(words)/5]
			cfg := Config{SignatureBytes: tc.sig}
			served, stored := t.TempDir(), t.TempDir()
			var engines [2]*Engine
			for i, dir := range []string{served, stored} {
				e, err := NewDurableEngine(cfg, dir)
				if err != nil {
					t.Fatal(err)
				}
				if dir == stored {
					if e.tree, err = core.New(e.idxDisk, e.store, e.coreOptions()); err != nil {
						t.Fatal(err)
					}
				}
				engines[i] = e
			}
			defer func() {
				for _, e := range engines {
					e.Close()
				}
			}()
			each := func(fn func(e *Engine) error) {
				t.Helper()
				for _, e := range engines {
					if err := fn(e); err != nil {
						t.Fatal(err)
					}
				}
			}
			reopen := func() {
				t.Helper()
				for i, dir := range []string{served, stored} {
					if err := engines[i].Save(); err != nil {
						t.Fatal(err)
					}
					if err := engines[i].Close(); err != nil {
						t.Fatal(err)
					}
					e, err := OpenEngine(dir)
					if err != nil {
						t.Fatal(err)
					}
					engines[i] = e
				}
			}
			check := func(step string) {
				t.Helper()
				compareTrees(t, step, engines[0], engines[1])
				for q := 0; q < 48; q++ {
					p := rows[(q*7919)%len(rows)].point
					kws := []string{frequent[q*7%len(frequent)], mid[q*13%len(mid)], mid[q*29%len(mid)]}
					k := 10
					if q%10 == 0 {
						k = 100
					}
					var got [2]string
					var work [2]QueryStats
					for i, e := range engines {
						res, st, err := e.TopKWithStats(k, p, kws[:2]...)
						if err != nil {
							t.Fatal(err)
						}
						got[i], work[i] = fmt.Sprint(res), st
					}
					compareWork(t, fmt.Sprintf("%s: top %d %v", step, k, kws[:2]), got, work)
					for i, e := range engines {
						s, err := e.SearchRanked(p, kws...)
						if err != nil {
							t.Fatal(err)
						}
						res, err := FirstK(nil, s, k, nil)
						s.Close()
						if err != nil {
							t.Fatal(err)
						}
						got[i], work[i] = fmt.Sprint(res), s.Stats()
					}
					compareWork(t, fmt.Sprintf("%s: ranked %d %v", step, k, kws), got, work)
				}
			}

			pack := len(rows) * 9 / 10
			for _, r := range rows[:pack] {
				each(func(e *Engine) error { _, err := e.Add(r.point, r.text); return err })
			}
			reopen()
			check("pack")
			// Grow past the pack: every leaf's worth of adds goes to the tree
			// by Guttman inserts, the rest stays queued; delete tree rows
			// (some leaves condense) and queued ones.
			for _, r := range rows[pack:] {
				each(func(e *Engine) error { _, err := e.Add(r.point, r.text); return err })
			}
			for id := uint64(0); id < uint64(len(rows)); id += 5 {
				if id < uint64(pack/3) || id >= uint64(len(rows)-40) {
					each(func(e *Engine) error { return e.Delete(id) })
				}
			}
			if len(engines[0].run) == 0 {
				t.Fatal("no row is queued")
			}
			check("grown")
			reopen()
			check("reopened")
		})
	}
}

// compareWork requires the two engines' answers and traversal counters to
// agree; only the blocks they read may differ.
func compareWork(t *testing.T, what string, got [2]string, work [2]QueryStats) {
	t.Helper()
	if got[0] != got[1] {
		t.Fatalf("%s: served answers %s, stored %s", what, got[0], got[1])
	}
	a, b := work[0].Work, work[1].Work
	a.BlocksRandom, a.BlocksSequential, b.BlocksRandom, b.BlocksSequential = 0, 0, 0, 0
	if a != b {
		t.Fatalf("%s: served traversal %+v, stored %+v", what, a, b)
	}
}

// compareTrees walks the served engine's tree and the stored one side by
// side (the same operations built both, so their shapes agree), and
// requires what TestServedLeavesMatchStoredPayloads says of them.
func compareTrees(t *testing.T, step string, served, stored *Engine) {
	t.Helper()
	a, b := served.tree.RTree(), stored.tree.RTree()
	if !slices.Equal(a.AuxLens(), b.AuxLens()) || a.NumNodes() != b.NumNodes() || a.Len() != b.Len() {
		t.Fatalf("%s: served tree %v, %d nodes, %d objects; stored %v, %d, %d",
			step, a.AuxLens(), a.NumNodes(), a.Len(), b.AuxLens(), b.NumNodes(), b.Len())
	}
	if got := a.RunFor(0, a.MaxEntries()); got != 1 {
		t.Fatalf("%s: a full served leaf takes %d blocks", step, got)
	}
	if got := b.RunFor(0, b.MaxEntries()); got < 2 {
		t.Fatalf("%s: a full stored leaf takes %d blocks, the served tree saves nothing", step, got)
	}
	for _, rt := range []*rtree.Tree{a, b} {
		if err := rt.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	leaf := served.coreOptions().LeafSignature
	ra, err := a.Root()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Root()
	if err != nil {
		t.Fatal(err)
	}
	var walk func(na, nb *rtree.Node)
	walk = func(na, nb *rtree.Node) {
		if na.Level() != nb.Level() || na.NumEntries() != nb.NumEntries() {
			t.Fatalf("%s: node %d level %d of %d entries, stored %d level %d of %d",
				step, na.ID(), na.Level(), na.NumEntries(), nb.ID(), nb.Level(), nb.NumEntries())
		}
		for i := 0; i < na.NumEntries(); i++ {
			pa, rect, auxA := na.Entry(i)
			pb, rectB, auxB := nb.Entry(i)
			if !rect.Equal(rectB) || !bytes.Equal(auxA, auxB) {
				t.Fatalf("%s: node %d entry %d: %v %x, stored %v %x", step, na.ID(), i, rect, auxA, rectB, auxB)
			}
			if na.Level() > 0 {
				ca, err := a.LoadNode(storage.BlockID(pa))
				if err != nil {
					t.Fatal(err)
				}
				cb, err := b.LoadNode(storage.BlockID(pb))
				if err != nil {
					t.Fatal(err)
				}
				walk(ca, cb)
				continue
			}
			obj, err := served.store.Get(objstore.Ptr(pa))
			if err != nil {
				t.Fatal(err)
			}
			if want := leaf.DocSignature(served.an.Unique(obj.Text)); pa != pb || !bytes.Equal(auxA, want) {
				t.Fatalf("%s: leaf %d entry %d: object %d, stored %d; signature %x, its words' %x", step, na.ID(), i, pa, pb, auxA, want)
			}
		}
		if na.Level() == 0 {
			if na.Run() != 1 {
				t.Fatalf("%s: served leaf %d of %d entries on a run of %d blocks", step, na.ID(), na.NumEntries(), na.Run())
			}
			compareColumns(t, step, a, b, na.ID(), nb.ID(), leaf.LengthBytes)
		}
	}
	walk(ra, rb)
}

// compareColumns requires leaf ida of tree a and leaf idb of tree b to
// build the same signature columns: the same MatchMask for a query of each
// single bit, the column itself.
func compareColumns(t *testing.T, step string, a, b *rtree.Tree, ida, idb storage.BlockID, length int) {
	t.Helper()
	pa, err := a.LoadPacked(ida)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.LoadPacked(idb)
	if err != nil {
		t.Fatal(err)
	}
	ma, mb := make([]uint64, a.MaskWords()), make([]uint64, b.MaskWords())
	for bit := 0; bit < length*8; bit++ {
		sig := make(sigfile.Signature, length)
		sig[bit/8] = 1 << (bit % 8)
		q := sigfile.MakeSig64(sig)
		if got, want := pa.MatchMask(&q, ma), pb.MatchMask(&q, mb); !slices.Equal(got, want) {
			t.Fatalf("%s: leaf %d column %d is %x, stored leaf %d's %x", step, ida, bit, got, idb, want)
		}
	}
}
