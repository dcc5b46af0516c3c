package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// upperIR is the ranked bound as the traversal computed it one entry at a
// time, before the scorer took a whole node: the entry's payload tested
// against each keyword's signature W_i with matchesTolerant (a length
// mismatch matches), and Σ wᵢ·idfᵢ over the matches in keyword order, where
// wᵢ is, for a node entry, CapWeight of the largest cap among the summaries
// (1 without summaries: the paper's bound, which the test compares with),
// and for an object the row's RowTF.Weight (1 for a row past the
// summaries), its summary looked up at the first match by the row ID its
// leaf entry holds, ref. It reads the query's signatures, idfs, probes and
// summaries from s and nothing else of its code.
func upperIR(s *rankedScorer, isObject bool, level int, aux []byte, ref uint64) float64 {
	rowTF := func(id uint64) *irscore.RowTF {
		if id >= uint64(len(s.rowTFs)) {
			return nil
		}
		return &s.rowTFs[id]
	}
	nodeWeight := 1.0
	if s.rowTFs != nil {
		var ceiling uint8
		for i := range s.rowTFs {
			ceiling = max(ceiling, s.rowTFs[i].Cap())
		}
		nodeWeight = irscore.CapWeight(ceiling)
	}
	sigs := s.sigs.at(level)
	var matched float64
	var row *irscore.RowTF
	lookup := isObject && s.rowTFs != nil
	for i := range sigs {
		if !matchesTolerant(&sigs[i], aux) {
			continue
		}
		if lookup {
			row, lookup = rowTF(ref), false
		}
		w := nodeWeight
		if isObject {
			w = 1
		}
		if row != nil {
			w = row.Weight(s.probes[i])
		}
		matched += w * s.idfs[i]
	}
	return matched
}

// forEachPacked calls fn on every node of x's tree, parents first.
func forEachPacked(t *testing.T, x *IR2Tree, fn func(pn *rtree.PackedNode)) {
	t.Helper()
	var visit func(pn *rtree.PackedNode)
	visit = func(pn *rtree.PackedNode) {
		fn(pn)
		if pn.Level() == 0 {
			return
		}
		for i := 0; i < pn.NumEntries(); i++ {
			child, err := x.rt.LoadPacked(storage.BlockID(pn.EntryPtr(i)))
			if err != nil {
				t.Fatal(err)
			}
			visit(child)
		}
	}
	root, err := x.rt.RootPacked()
	if err != nil {
		t.Fatal(err)
	}
	if root != nil {
		visit(root)
	}
}

// TestRankedScorerMatchesPerEntryBound holds the ranked node scorer to
// upperIR bit for bit on every node of an IR² and a MIR² tree, on the
// fixture's row table (node entries weigh a keyword by its ceiling, objects
// by their rows' summaries, both below the paper's 1): plain, with a
// zero-idf keyword, with idfs whose sum depends on its order, and with one
// interior level's signatures a byte longer than that level's payloads.
// The scorer must keep exactly the entries the per-entry test keeps — every
// entry the mask offers whose bound is not 0 — never one the mask withheld,
// and score each -f(MinDist, upperIR) with the same math.Float64bits.
func TestRankedScorerMatchesPerEntryBound(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := buildFixture(t, randomRows(rng, 400), 4, 8)
	var dropped, weighted, nodesWeighted, mismatched int
	for _, tree := range []struct {
		name string
		x    *IR2Tree
	}{{"IR2", f.sir2}, {"MIR2", f.smir2}} {
		for _, kw := range [][]string{{"pool", "gym", "wifi"}, {"internet", "notaword"}, {"notaword"}} {
			for _, variant := range []string{"plain", "zero-idf", "rounding", "lenmismatch"} {
				where := fmt.Sprintf("%s %v %s", tree.name, kw, variant)
				p := geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
				r := tree.x.SearchRanked(p, kw, GeneralOptions{Scorer: generalScorer(f)}, f.rows)
				s := &r.bound
				switch variant {
				case "zero-idf":
					s.idfs[0] = 0
				case "rounding":
					// 2⁵³+1+1 is 2⁵³ summed in keyword order, 2⁵³+2 in reverse.
					for i := range s.idfs {
						s.idfs[i] = 1
					}
					s.idfs[0] = 1 << 53
				case "lenmismatch":
					sigs := s.sigs.at(1)
					long := make(sigfile.Signature, s.sigs.x.levelConfig(1).LengthBytes+1)
					for i := range long {
						long[i] = 0xff
					}
					for i := range sigs {
						sigs[i] = sigfile.MakeSig64(long)
					}
				}
				forEachPacked(t, tree.x, func(pn *rtree.PackedNode) {
					offered := pn.MatchMask(nil, make([]uint64, tree.x.rt.MaskWords()))
					for e := 2; e < pn.NumEntries(); e += 3 {
						offered[e/64] &^= 1 << (e % 64) // withheld, as a signature miss
					}
					mask := slices.Clone(offered)
					scores := make([]float64, tree.x.rt.Capacity(pn.Level()))
					s.ScoreNode(pn, mask, scores)
					lo, hi := make(geo.Point, 2), make(geo.Point, 2)
					for e := 0; e < pn.NumEntries(); e++ {
						bit := func(m []uint64) bool { return m[e/64]>>(e%64)&1 == 1 }
						ub := upperIR(s, pn.Level() == 0, pn.Level(), pn.EntryAux(e), pn.EntryPtr(e))
						keep := bit(offered) && ub != 0
						if bit(mask) != keep {
							t.Fatalf("%s: node %d entry %d kept=%t, per-entry bound %g offered=%t",
								where, pn.ID(), e, bit(mask), ub, bit(offered))
						}
						if bit(offered) && !keep {
							dropped++
						}
						if variant == "lenmismatch" && pn.Level() == 1 {
							// Every keyword "may match" a payload of the wrong length.
							var all float64
							for _, idf := range s.idfs {
								all += irscore.CapWeight(f.rows.TFCeiling) * idf
							}
							if ub != all {
								t.Fatalf("%s: level-1 entry bound %g with mismatched signatures, want %g", where, ub, all)
							}
							mismatched++
						}
						unweighted := *s
						unweighted.rowTFs = nil
						if ub < upperIR(&unweighted, pn.Level() == 0, pn.Level(), pn.EntryAux(e), pn.EntryPtr(e)) {
							weighted++
							if pn.Level() > 0 {
								nodesWeighted++
							}
						}
						if !keep {
							continue
						}
						want := -irscore.Combine(pn.EntryRectInto(e, lo, hi).MinDist(p), ub)
						if math.Float64bits(scores[e]) != math.Float64bits(want) {
							t.Fatalf("%s: node %d entry %d scored %v (%#x), per-entry bound gives %v (%#x)",
								where, pn.ID(), e, scores[e], math.Float64bits(scores[e]), want, math.Float64bits(want))
						}
					}
				})
				r.Close()
			}
		}
	}
	if dropped == 0 || weighted == nodesWeighted || nodesWeighted == 0 || mismatched == 0 {
		t.Fatalf("inert workload: %d entries dropped, %d weighted bounds (%d of nodes), %d mismatched-level bounds",
			dropped, weighted, nodesWeighted, mismatched)
	}
}

// TestNodeBoundCoversEveryRowBeneath: with a row table, a node entry's
// ranked bound weighs each matched keyword by CapWeight of the table's
// TFCeiling instead of the paper's 1. Over a tree packed from a batch, grown
// by inserts, with queued rows only the table holds, deletes, and a reopen
// that rebuilds the table from the object file, every node entry ScoreNode
// keeps must bound -f of every live row beneath it, each row scored exactly
// from the table, and every entry it drops must have no row with a keyword
// beneath it. One table has a row repeating a word 300 times, which
// saturates the ceiling and gives back the paper's bound. The queries stand
// on the rows whose term frequency sets the ceiling and ask for that term,
// so a ceiling understated by one fails.
func TestNodeBoundCoversEveryRowBeneath(t *testing.T) {
	vocab := []string{"pool", "spa", "gym", "wifi", "bar", "golf", "beach", "sauna"}
	for _, saturated := range []bool{false, true} {
		t.Run(fmt.Sprintf("saturated=%t", saturated), func(t *testing.T) {
			rng := rand.New(rand.NewSource(55))
			objDisk, idxDisk := newDisk(), newDisk()
			store := objstore.New(objDisk)
			opts := Options{LeafSignature: f8(), MaxEntries: 5}
			rows := &Rows{Vocab: textutil.NewVocabulary(), Leaf: opts.LeafSignature}
			x, err := NewServed(idxDisk, store, opts, rows)
			if err != nil {
				t.Fatal(err)
			}
			var plain *textutil.Analyzer
			live := map[objstore.ID]bool{}
			var entries []Entry
			maxTF := 0
			add := func(i int) Entry {
				text := fmt.Sprintf("place %d:", i)
				for j := 0; j < 1+rng.Intn(4); j++ {
					w := vocab[rng.Intn(len(vocab))]
					for n := 1 + rng.Intn(3); n > 0; n-- {
						text += " " + w
					}
				}
				if saturated && i == 37 {
					text += strings.Repeat(" pool", 300)
				}
				counts := map[string]int{}
				for _, w := range strings.FieldsFunc(text, func(r rune) bool { return r == ' ' || r == ':' }) {
					counts[w]++
					maxTF = max(maxTF, counts[w])
				}
				p := geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
				id, _, err := store.Append(p, text)
				if err != nil {
					t.Fatal(err)
				}
				rows.Add(id, p, plain, text)
				return Entry{Ref: uint64(id), Point: p, Words: plain.Unique(text)}
			}
			for i := 0; i < 120; i++ { // packed
				entries = append(entries, add(i))
			}
			if _, err := x.InsertBatch(entries); err != nil {
				t.Fatal(err)
			}
			for i := 120; i < 160; i++ { // inserted
				e := add(i)
				entries = append(entries, e)
				if err := x.insert(e); err != nil {
					t.Fatal(err)
				}
			}
			for i := 160; i < 170; i++ { // queued: in the table, not in the tree
				add(i)
			}
			for i, e := range entries {
				live[objstore.ID(i)] = true
				if i%7 == 3 {
					if ok, err := x.Delete(e.Point, e.Ref); err != nil || !ok {
						t.Fatalf("delete row %d: %t %v", i, ok, err)
					}
					live[objstore.ID(i)] = false
				}
			}
			if err := store.Sync(); err != nil {
				t.Fatal(err)
			}
			want := irscore.TFCap(maxTF)
			if saturated != (want == irscore.MaxTFCap) || want < 3 {
				t.Fatalf("largest term frequency %d: the generator misses its case", maxTF)
			}
			if rows.TFCeiling != want {
				t.Fatalf("ceiling %d, want %d", rows.TFCeiling, want)
			}
			checkNodeBounds(t, "built", x, rows, live)

			treeState, err := x.Checkpoint(storage.NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			storeMeta, err := store.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			store, err = objstore.Open(objDisk, storeMeta)
			if err != nil {
				t.Fatal(err)
			}
			rows = rowTable(t, store, opts)
			if x, err = Open(idxDisk, store, opts, rows, treeState); err != nil {
				t.Fatal(err)
			}
			if rows.TFCeiling != want {
				t.Fatalf("reopened: ceiling %d, want %d", rows.TFCeiling, want)
			}
			checkNodeBounds(t, "reopened", x, rows, live)
		})
	}
}

// checkNodeBounds runs TestNodeBoundCoversEveryRowBeneath's check on one
// tree and table: queries on the rows whose largest term frequency is the
// table's ceiling, for that term, alone and with another word, and on
// random rows for random words.
func checkNodeBounds(t *testing.T, where string, x *IR2Tree, rows *Rows, live map[objstore.ID]bool) {
	t.Helper()
	type query struct {
		at  geo.Point
		kws []string
	}
	var queries []query
	tf := make([]int, 1)
	for id := 0; id < rows.Terms.Len() && len(queries) < 12; id++ {
		if !live[objstore.ID(id)] || rows.TFs[id].Cap() != rows.TFCeiling {
			continue
		}
		for _, w := range []string{"pool", "spa", "gym", "wifi", "bar", "golf", "beach", "sauna"} {
			rows.Terms.CountsInto(tf, id, rows.termIDs(nil, []string{w}))
			if irscore.TFCap(tf[0]) == rows.TFCeiling {
				queries = append(queries, query{rows.Point(id), []string{w}}, query{rows.Point(id), []string{w, "spa"}})
				break
			}
		}
	}
	rng := rand.New(rand.NewSource(56))
	for i := 0; i < 8; i++ {
		queries = append(queries, query{rows.Point(rng.Intn(rows.Terms.Len())), []string{"gym", "beach", "wifi"}[:1+i%3]})
	}
	if len(queries) < 10 {
		t.Fatalf("%s: only %d queries stand on a row at the ceiling", where, len(queries))
	}
	// A bound the ceiling one lower would give is about this share of it;
	// a row scoring above that share of its entry's bound is one such a
	// bound would miss.
	under := irscore.CapWeight(rows.TFCeiling-1) / irscore.CapWeight(rows.TFCeiling)
	var tight int
	for _, q := range queries {
		r := x.SearchRanked(q.at, q.kws, GeneralOptions{Scorer: irscore.NewScorer(rows.Vocab.NumDocs(), rows.Vocab.DocFreq)}, rows)
		s := &r.bound
		forEachPacked(t, x, func(pn *rtree.PackedNode) {
			if pn.Level() == 0 {
				return
			}
			mask := pn.MatchMask(nil, make([]uint64, x.rt.MaskWords()))
			scores := make([]float64, x.rt.Capacity(pn.Level()))
			s.ScoreNode(pn, mask, scores)
			for e := 0; e < pn.NumEntries(); e++ {
				kept := mask[e/64]>>(e%64)&1 == 1
				for _, id := range rowsBeneath(t, x, pn.EntryPtr(e)) {
					if !live[id] {
						t.Fatalf("%s: deleted row %d is still in the tree", where, id)
					}
					rows.Terms.CountsInto(r.tf, int(id), r.ids)
					ir := irscore.ScoreFromCounts(r.tf, s.idfs)
					if ir == 0 {
						continue
					}
					exact := irscore.Combine(q.at.Dist(rows.Point(int(id))), ir)
					switch {
					case !kept:
						t.Fatalf("%s %v: node %d dropped entry %d, which holds row %d scoring %v", where, q.kws, pn.ID(), e, id, exact)
					case -scores[e] < exact:
						t.Fatalf("%s %v: node %d entry %d bound %v < row %d's exact %v (ceiling %d)",
							where, q.kws, pn.ID(), e, -scores[e], id, exact, rows.TFCeiling)
					case exact > -scores[e]*under:
						tight++
					}
				}
			}
		})
		r.Close()
	}
	if tight == 0 {
		t.Fatalf("%s: no row scores within the ceiling's margin of its node bound: the queries miss the rows at the ceiling", where)
	}
}

// rowsBeneath returns the IDs of the rows under the node at ptr.
func rowsBeneath(t *testing.T, x *IR2Tree, ptr uint64) []objstore.ID {
	t.Helper()
	pn, err := x.rt.LoadPacked(storage.BlockID(ptr))
	if err != nil {
		t.Fatal(err)
	}
	var ids []objstore.ID
	for e := 0; e < pn.NumEntries(); e++ {
		if pn.Level() > 0 {
			ids = append(ids, rowsBeneath(t, x, pn.EntryPtr(e))...)
			continue
		}
		ids = append(ids, objstore.ID(pn.EntryPtr(e)))
	}
	return ids
}
