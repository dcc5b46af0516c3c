package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// TestQuickPruneSoundness is the central correctness property of the
// IR²-Tree, as a randomized invariant: for arbitrary corpora and queries,
// the signature-pruned traversal returns exactly what an unpruned
// traversal plus a text filter would. (Signatures may only produce false
// positives — never false negatives — so pruning can never lose a result.)
func TestQuickPruneSoundness(t *testing.T) {
	vocab := []string{"ape", "bee", "cat", "dog", "elk", "fox", "gnu", "hen"}
	f := func(seed int64, nObjs uint8, sigLen uint8, q1, q2 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nObjs)%60 + 5
		objDisk := storage.NewDisk(4096)
		store := objstore.New(objDisk)
		type rec struct {
			pt   geo.Point
			text string
		}
		recs := make([]rec, n)
		for i := range recs {
			nw := 1 + rng.Intn(4)
			text := fmt.Sprintf("obj%d", i)
			for j := 0; j < nw; j++ {
				text += " " + vocab[rng.Intn(len(vocab))]
			}
			recs[i] = rec{geo.NewPoint(rng.Float64()*100, rng.Float64()*100), text}
			store.Append(recs[i].pt, recs[i].text)
		}
		if err := store.Sync(); err != nil {
			return false
		}
		tree, err := New(storage.NewDisk(4096), store, Options{
			LeafSignature: sigfile.Config{LengthBytes: int(sigLen)%8 + 1, BitsPerWord: 2},
			MaxEntries:    4,
		})
		if err != nil {
			return false
		}
		if err := tree.Build(); err != nil {
			return false
		}
		keywords := []string{vocab[int(q1)%len(vocab)], vocab[int(q2)%len(vocab)]}
		p := geo.NewPoint(rng.Float64()*100, rng.Float64()*100)
		got, _, err := tree.TopK(n, p, keywords)
		if err != nil {
			return false
		}
		// Reference: unpruned NN + text filter.
		var want []objstore.ID
		it := tree.RTree().NearestNeighbors(p, nil)
		for {
			ref, _, ok, err := it.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			obj, err := store.Get(objstore.Ptr(ref))
			if err != nil {
				return false
			}
			if textutil.ContainsAll(obj.Text, keywords) {
				want = append(want, obj.ID)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Object.ID != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickGeneralNeverBeatsUpperBound checks the general algorithm's
// emit discipline over random data: the stream of scores is non-increasing
// (no later result can beat an earlier one).
func TestQuickGeneralScoreMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	for trial := 0; trial < 15; trial++ {
		rows := randomRows(rng, 80+rng.Intn(150))
		f := buildFixture(t, rows, 4, 1+rng.Intn(8))
		scorer := generalScorer(f)
		kw := []string{"pool", "internet", "spa"}[:1+rng.Intn(3)]
		it := f.ir2.SearchRanked(geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000), kw,
			GeneralOptions{Scorer: scorer, RequireMatch: true})
		prev := -1.0
		first := true
		for {
			res, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if !first && res.Score > prev+1e-12 {
				t.Fatalf("trial %d: score %g after %g", trial, res.Score, prev)
			}
			prev, first = res.Score, false
		}
	}
}

// TestQuickAreaConsistentWithPointQueries: an object returned by WithinArea
// must also be returned by a large-enough area top-k and vice versa.
func TestQuickAreaConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	rows := randomRows(rng, 300)
	f := buildFixture(t, rows, 4, 8)
	for trial := 0; trial < 20; trial++ {
		lo := geo.NewPoint(rng.Float64()*800, rng.Float64()*800)
		area := geo.NewRect(lo, geo.NewPoint(lo[0]+200, lo[1]+200))
		kw := []string{"pool"}
		within, _, err := f.ir2.WithinArea(area, kw)
		if err != nil {
			t.Fatal(err)
		}
		topArea, _, err := topKArea(f.ir2, len(f.objects), area, kw)
		if err != nil {
			t.Fatal(err)
		}
		// Every zero-distance area top-k result must be in WithinArea and
		// vice versa.
		zeroDist := make(map[objstore.ID]bool)
		for _, r := range topArea {
			if r.Dist == 0 {
				zeroDist[r.Object.ID] = true
			}
		}
		if len(zeroDist) != len(within) {
			t.Fatalf("trial %d: %d zero-dist vs %d within", trial, len(zeroDist), len(within))
		}
		for _, r := range within {
			if !zeroDist[r.Object.ID] {
				t.Fatalf("trial %d: object %d in WithinArea missing from the area top-k", trial, r.Object.ID)
			}
		}
	}
}

// TestQuickSignatureLevelMonotone: in a MIR²-Tree, an interior entry's
// signature must cover the signature of every object in its subtree at
// that level's configuration — the invariant that makes pruning sound.
func TestQuickMIR2InteriorCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	rows := randomRows(rng, 200)
	f := buildFixture(t, rows, 4, 4)
	rt := f.mir2.RTree()
	scheme := f.mir2.scheme
	err := rt.VisitNodes(func(n *rtree.Node) error {
		if n.Level() == 0 {
			return nil
		}
		cfg := scheme.levelConfig(n.Level())
		for i := 0; i < n.NumEntries(); i++ {
			ptr, _, aux := n.Entry(i)
			child, err := rt.LoadNode(storage.BlockID(ptr))
			if err != nil {
				return err
			}
			refs, err := rt.SubtreeObjectRefs(child)
			if err != nil {
				return err
			}
			for _, ref := range refs {
				obj, err := f.store.Get(objstore.Ptr(ref))
				if err != nil {
					return err
				}
				for _, w := range textutil.UniqueTokens(obj.Text) {
					if !sigfile.Matches(sigfile.Signature(aux), cfg.WordSignature(w)) {
						return fmt.Errorf("node %d entry %d: word %q of object %d not covered",
							n.ID(), i, w, obj.ID)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickCheckpointFaultIsolation is the save-path hardening property: a
// fault plan that kills the device partway through build-and-checkpoint
// must surface as a typed I/O fault — never a panic, never a silent
// success — and whenever the whole pipeline does succeed, reopening the
// checkpoint must reproduce the in-memory oracle exactly.
func TestQuickCheckpointFaultIsolation(t *testing.T) {
	vocab := []string{"ape", "bee", "cat", "dog", "elk", "fox"}
	f := func(seed int64, nObjs, failAt uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nObjs)%40 + 5
		store := objstore.New(storage.NewDisk(4096))
		type rec struct {
			pt   geo.Point
			text string
		}
		oracle := make([]rec, n)
		for i := range oracle {
			text := fmt.Sprintf("obj%d %s %s", i, vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))])
			oracle[i] = rec{geo.NewPoint(rng.Float64()*100, rng.Float64()*100), text}
			if _, _, err := store.Append(oracle[i].pt, oracle[i].text); err != nil {
				return false
			}
		}
		if err := store.Sync(); err != nil {
			return false
		}
		// The index device dies on the failAt-th write (0 = never): the
		// kill lands anywhere in build or checkpoint depending on n.
		plan := storage.FaultPlan{Seed: seed}
		if failAt > 0 {
			plan.FailWritesFrom = uint64(failAt)
		}
		dev := storage.NewFaultDevice(storage.NewDisk(512), plan)
		opts := Options{
			LeafSignature: sigfile.Config{LengthBytes: 16, BitsPerWord: 2},
			MaxEntries:    4,
		}
		tree, err := New(dev, store, opts)
		if err != nil {
			return false
		}
		pipeline := func() (storage.BlockID, error) {
			if err := tree.Build(); err != nil {
				return storage.NilBlock, err
			}
			return tree.Checkpoint(storage.NilBlock)
		}
		state, err := pipeline()
		if err != nil {
			// The kill fired: it must be the typed injected fault, with
			// block provenance, and classified as an I/O fault.
			var fe *storage.FaultError
			if !errors.As(err, &fe) || !storage.IsIOFault(err) {
				t.Logf("seed %d failAt %d: untyped failure %v", seed, failAt, err)
				return false
			}
			return true
		}
		// The pipeline survived (failAt beyond its write count, or 0):
		// disarm the plan and verify the checkpoint against the oracle.
		dev.SetPlan(storage.FaultPlan{})
		reopened, err := Open(dev, store, opts, state)
		if err != nil {
			t.Logf("seed %d: reopen of successful checkpoint: %v", seed, err)
			return false
		}
		keyword := vocab[rng.Intn(len(vocab))]
		p := geo.NewPoint(rng.Float64()*100, rng.Float64()*100)
		got, _, err := reopened.TopK(n, p, []string{keyword})
		if err != nil {
			return false
		}
		var want []objstore.ID
		for i, r := range oracle {
			if textutil.ContainsAll(r.text, []string{keyword}) {
				want = append(want, objstore.ID(i))
			}
		}
		if len(got) != len(want) {
			t.Logf("seed %d: reopened tree found %d, oracle %d", seed, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
