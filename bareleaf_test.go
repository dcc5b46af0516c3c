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

// TestServedLeavesMatchStoredPayloads holds a served tree, whose leaves
// store each entry as a pointer and a point and no signature (the row table
// keeps them), to a tree built by the same operations whose leaves store
// 40-byte entries and their signatures, the paper's layout: packed from a
// load and saved, reopened, then grown by Guttman inserts, with rows queued
// and rows deleted, saved and reopened again. A served leaf holds 170
// entries to the stored tree's 102, so the trees differ in shape. After
// each step every query answers as the stored tree does and reads the same
// rows; both trees keep every structural invariant; every served leaf is
// one block, a full one too; and each of its entries is its row's point,
// its signature columns those of its rows' DocSignatures.
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
				checkServedTree(t, step, engines[0])
				if err := engines[1].tree.RTree().CheckInvariants(); err != nil {
					t.Fatalf("%s: stored tree: %v", step, err)
				}
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

// compareWork requires the two engines' answers and the rows they read to
// agree.
func compareWork(t *testing.T, what string, got [2]string, work [2]QueryStats) {
	t.Helper()
	if got[0] != got[1] {
		t.Fatalf("%s: served answers %s, stored %s", what, got[0], got[1])
	}
	if a, b := work[0].ObjectsLoaded, work[1].ObjectsLoaded; a != b {
		t.Fatalf("%s: served query read %d rows, stored %d", what, a, b)
	}
}

// checkServedTree walks the served engine's tree and requires what
// TestServedLeavesMatchStoredPayloads says of it.
func checkServedTree(t *testing.T, step string, served *Engine) {
	t.Helper()
	a := served.tree.RTree()
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if got := a.Capacity(0); got != 170 {
		t.Fatalf("%s: a served leaf holds %d entries, want 170", step, got)
	}
	if got := a.RunFor(0, a.Capacity(0)); got != 1 {
		t.Fatalf("%s: a full served leaf takes %d blocks", step, got)
	}
	leaf := served.coreOptions().LeafSignature
	err := a.VisitNodes(func(n *rtree.Node) error {
		if n.Level() > 0 {
			return nil
		}
		if n.Run() != 1 {
			return fmt.Errorf("served leaf %d of %d entries on a run of %d blocks", n.ID(), n.NumEntries(), n.Run())
		}
		sigs := make([]sigfile.Signature, n.NumEntries())
		for i := range sigs {
			ptr, rect, aux := n.Entry(i)
			obj, err := served.store.Get(objstore.Ptr(ptr))
			if err != nil {
				return err
			}
			sigs[i] = leaf.DocSignature(served.an.Unique(obj.Text))
			if !rect.Lo.Equal(obj.Point) || !rect.Hi.Equal(obj.Point) || !bytes.Equal(aux, sigs[i]) {
				return fmt.Errorf("leaf %d entry %d: %v %x; its row's point %v, its words' signature %x",
					n.ID(), i, rect, aux, obj.Point, sigs[i])
			}
		}
		return checkColumns(a, n.ID(), sigs, leaf.LengthBytes)
	})
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// checkColumns requires leaf id of tree a to build the signature columns of
// sigs, its entries' signatures: the MatchMask of a query of each single
// bit is the entries whose signature has it.
func checkColumns(a *rtree.Tree, id storage.BlockID, sigs []sigfile.Signature, length int) error {
	pn, err := a.LoadPacked(id)
	if err != nil {
		return err
	}
	mask := make([]uint64, a.MaskWords())
	for bit := 0; bit < length*8; bit++ {
		sig := make(sigfile.Signature, length)
		sig[bit/8] = 1 << (bit % 8)
		q := sigfile.MakeSig64(sig)
		want := make([]uint64, (len(sigs)+63)/64)
		for i, s := range sigs {
			if s[bit/8]&(1<<(bit%8)) != 0 {
				want[i/64] |= 1 << (i % 64)
			}
		}
		if got := pn.MatchMask(&q, mask); !slices.Equal(got, want) {
			return fmt.Errorf("leaf %d column %d is %x, its rows' %x", id, bit, got, want)
		}
	}
	return nil
}
