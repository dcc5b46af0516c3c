package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
)

// upperIR is the ranked bound as the traversal computed it one entry at a
// time, before the scorer took a whole node: the entry's payload tested
// against each keyword's signature W_i with Sig64.MatchesTolerant (a length
// mismatch matches), and Σ wᵢ·idfᵢ over the matches in keyword order, where
// wᵢ is 1 for a node entry and the row's RowTF.Weight for an object, its
// summary looked up at the first match. It reads the query's signatures,
// idfs, probes and summaries from s and nothing else of its code.
func upperIR(s *rankedScorer, isObject bool, level int, aux []byte, ptr uint64) float64 {
	rowTF := func(ptr uint64) *irscore.RowTF {
		id, ok := slices.BinarySearch(s.store.Ptrs(), objstore.Ptr(ptr))
		if !ok || id >= len(s.rowTFs) {
			return nil
		}
		return &s.rowTFs[id]
	}
	sigs := s.sigs.at(level)
	var matched float64
	var row *irscore.RowTF
	lookup := isObject && s.rowTFs != nil
	for i := range sigs {
		if !sigs[i].MatchesTolerant(aux) {
			continue
		}
		if lookup {
			row, lookup = rowTF(ptr), false
		}
		w := 1.0
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
// upperIR bit for bit on every node of an IR² and a MIR² tree: with and
// without row summaries (some rows past the end of Rows.TFs), with a zero-idf
// keyword, with idfs whose sum depends on its order, and with one interior
// level's signatures a byte longer than that level's payloads. The scorer
// must keep exactly the entries the per-entry test keeps — every entry the
// mask offers whose bound is not 0 — never one the mask withheld, and score
// each -f(MinDist, upperIR) with the same math.Float64bits.
func TestRankedScorerMatchesPerEntryBound(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := buildFixture(t, randomRows(rng, 400), 4, 8)
	rowTFs := make([]irscore.RowTF, len(f.objects)-9)
	for i := range rowTFs {
		rowTFs[i].SetCap(1 + i%4)
		if i%3 == 0 {
			rowTFs[i].AddRepeated("pool")
		}
		if i%5 == 0 {
			rowTFs[i].AddRepeated("wifi")
		}
	}
	var dropped, weighted, mismatched int
	for _, tree := range []struct {
		name string
		x    *IR2Tree
	}{{"IR2", f.ir2}, {"MIR2", f.mir2}} {
		for _, kw := range [][]string{{"pool", "gym", "wifi"}, {"internet", "notaword"}, {"notaword"}} {
			for _, variant := range []string{"plain", "zero-idf", "rounding", "lenmismatch"} {
				for _, rows := range [][]irscore.RowTF{nil, rowTFs} {
					where := fmt.Sprintf("%s %v %s rowTFs=%t", tree.name, kw, variant, rows != nil)
					p := geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
					r := tree.x.SearchRanked(p, kw, GeneralOptions{Scorer: generalScorer(f)})
					if rows != nil {
						r.UseRows(tfRows(rows))
					}
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
						scores := make([]float64, tree.x.rt.MaxEntries())
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
								if all := irscore.UpperBound(s.idfs); ub != all {
									t.Fatalf("%s: level-1 entry bound %g with mismatched signatures, want %g", where, ub, all)
								}
								mismatched++
							}
							if rows != nil && pn.Level() == 0 {
								unweighted := *s
								unweighted.rowTFs = nil
								if ub < upperIR(&unweighted, true, 0, pn.EntryAux(e), pn.EntryPtr(e)) {
									weighted++
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
	}
	if dropped == 0 || weighted == 0 || mismatched == 0 {
		t.Fatalf("inert workload: %d entries dropped, %d weighted object bounds, %d mismatched-level bounds",
			dropped, weighted, mismatched)
	}
}
