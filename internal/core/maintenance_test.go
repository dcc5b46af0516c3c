package core

import (
	"fmt"
	"math/rand"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
)

// TestInsertMaintainsSignatures checks that after every insert, every parent
// signature equals the scheme's recomputation (rtree.CheckInvariants calls
// NodeAux on every node) and queries stay exact.
func TestInsertMaintainsSignatures(t *testing.T) {
	for _, multilevel := range []bool{false, true} {
		name := "IR2"
		if multilevel {
			name = "MIR2"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			objDisk := storage.NewDisk(4096)
			store := objstore.New(objDisk)
			tree, err := New(storage.NewDisk(4096), store, Options{
				LeafSignature:     sigfile.Config{LengthBytes: 8, BitsPerWord: 4},
				MaxEntries:        4,
				Multilevel:        multilevel,
				AvgWordsPerObject: 4,
				VocabSize:         14,
			})
			if err != nil {
				t.Fatal(err)
			}
			rows := randomRows(rng, 120)
			var objs []objstore.Object
			for i, r := range rows {
				_, ptr, _ := store.Append(geo.NewPoint(r.lat, r.lon), r.text)
				if err := store.Sync(); err != nil {
					t.Fatal(err)
				}
				obj, err := store.Get(ptr)
				if err != nil {
					t.Fatal(err)
				}
				objs = append(objs, obj)
				if err := tree.Insert(obj, ptr); err != nil {
					t.Fatal(err)
				}
				if i%30 == 29 {
					if err := tree.RTree().CheckInvariants(); err != nil {
						t.Fatalf("after insert %d: %v", i, err)
					}
				}
			}
			// Query correctness after incremental build.
			p := geo.NewPoint(300, 300)
			got, _, err := tree.TopK(10, p, []string{"pool"})
			if err != nil {
				t.Fatal(err)
			}
			want := objIDs(bruteTopK(objs, 10, p, []string{"pool"}))
			if fmt.Sprint(resultIDs(got)) != fmt.Sprint(want) {
				t.Errorf("got %v, want %v", resultIDs(got), want)
			}
		})
	}
}

func TestDeleteMaintainsSignatures(t *testing.T) {
	for _, multilevel := range []bool{false, true} {
		name := "IR2"
		if multilevel {
			name = "MIR2"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			rows := randomRows(rng, 100)
			f := buildFixture(t, rows, 4, 8)
			tree := f.ir2
			if multilevel {
				tree = f.mir2
			}
			// Delete a random half.
			perm := rng.Perm(len(rows))
			deleted := make(map[objstore.ID]bool)
			for _, i := range perm[:len(rows)/2] {
				ok, err := tree.Delete(f.objects[i].Point, uint64(f.ptrs[i]))
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("object %d not found", i)
				}
				deleted[f.objects[i].ID] = true
			}
			if err := tree.RTree().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Queries over the survivors are exact.
			var remaining []objstore.Object
			for _, o := range f.objects {
				if !deleted[o.ID] {
					remaining = append(remaining, o)
				}
			}
			p := geo.NewPoint(200, 200)
			got, _, err := tree.TopK(8, p, []string{"internet"})
			if err != nil {
				t.Fatal(err)
			}
			want := objIDs(bruteTopK(remaining, 8, p, []string{"internet"}))
			if fmt.Sprint(resultIDs(got)) != fmt.Sprint(want) {
				t.Errorf("got %v, want %v", resultIDs(got), want)
			}
			// Deleting again returns false.
			ok, err := tree.Delete(f.objects[perm[0]].Point, uint64(f.ptrs[perm[0]]))
			if err != nil || ok {
				t.Errorf("double delete: ok=%v err=%v", ok, err)
			}
		})
	}
}

// TestSignatureBitsNeverLostOnInsert verifies the paper's AdjustTree rule
// directly: after inserting an object with word w, the root signature must
// match w's signature at the root level.
func TestSignatureBitsNeverLostOnInsert(t *testing.T) {
	f := buildFixture(t, figure1, 3, 16)
	// Add a hotel with a brand-new word far away.
	_, ptr, _ := f.store.Append(geo.NewPoint(80, 80), "Hotel Z heliport")
	if err := f.store.Sync(); err != nil {
		t.Fatal(err)
	}
	obj, err := f.store.Get(ptr)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ir2.Insert(obj, ptr); err != nil {
		t.Fatal(err)
	}
	// The new word must now be findable.
	got, _, err := f.ir2.TopK(1, geo.NewPoint(0, 0), []string{"heliport"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Object.Text != "Hotel Z heliport" {
		t.Errorf("new object not found: %v", got)
	}
	if err := f.ir2.RTree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMIR2MaintenanceCostsMore quantifies the paper's Section 4 claim: an
// insert into a MIR²-Tree performs more I/O than into an IR²-Tree of the
// same shape, because ancestor signatures are recomputed from all
// underlying objects.
func TestMIR2MaintenanceCostsMore(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rows := randomRows(rng, 300)
	f := buildFixture(t, rows, 4, 8)

	_, ptr, _ := f.store.Append(geo.NewPoint(123, 456), "fresh place with pool and spa")
	if err := f.store.Sync(); err != nil {
		t.Fatal(err)
	}
	obj, err := f.store.Get(ptr)
	if err != nil {
		t.Fatal(err)
	}

	measure := func(tree *IR2Tree, disk *storage.Disk) uint64 {
		disk.ResetStats()
		f.objDisk.ResetStats()
		if err := tree.Insert(obj, ptr); err != nil {
			t.Fatal(err)
		}
		idx, obj := disk.Stats(), f.objDisk.Stats()
		return idx.Random() + idx.Sequential() + obj.Random() + obj.Sequential()
	}
	ir2Cost := measure(f.ir2, f.ir2Disk)
	mir2Cost := measure(f.mir2, f.mir2Disk)
	if mir2Cost <= ir2Cost {
		t.Errorf("MIR² insert cost %d <= IR² cost %d; expected much more", mir2Cost, ir2Cost)
	}
	// The MIR² recomputation must actually touch the object file.
	if obj := f.objDisk.Stats(); obj.RandomReads+obj.SequentialReads == 0 {
		t.Error("MIR² insert did not read underlying objects")
	}
}

// TestMIR2LevelLengthsGrow checks the multi-level design: interior levels
// get longer signatures than the leaves, capped by the vocabulary size.
func TestMIR2LevelLengthsGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	rows := randomRows(rng, 400)
	f := buildFixture(t, rows, 4, 2)
	s := f.mir2.scheme
	if f.mir2.RTree().Height() < 3 {
		t.Fatalf("tree too shallow: height %d", f.mir2.RTree().Height())
	}
	prev := s.EntryAuxLen(0)
	if prev != 2 {
		t.Fatalf("leaf signature length %d, want 2", prev)
	}
	for lvl := 1; lvl < f.mir2.RTree().Height(); lvl++ {
		cur := s.EntryAuxLen(lvl)
		if cur < prev {
			t.Errorf("level %d signature %dB shorter than level %d's %dB", lvl, cur, lvl-1, prev)
		}
		prev = cur
	}
	// The uniform IR²-Tree keeps one length everywhere.
	u := f.ir2.scheme
	for lvl := 0; lvl < 5; lvl++ {
		if u.EntryAuxLen(lvl) != 2 {
			t.Errorf("IR² level %d length %d, want 2", lvl, u.EntryAuxLen(lvl))
		}
	}
}

// TestMIR2FewerNodeAccesses verifies the headline MIR² benefit on a
// vocabulary large enough to saturate short uniform signatures: the
// multilevel tree prunes interior nodes better (fewer node loads) than the
// IR²-Tree with the same leaf signature length.
func TestMIR2FewerNodeAccesses(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	// Large vocabulary: include a unique word per object plus shared terms.
	rows := make([]struct {
		lat, lon float64
		text     string
	}, 600)
	shared := []string{"pool", "spa", "internet", "gym", "bar"}
	for i := range rows {
		rows[i].lat = rng.Float64() * 1000
		rows[i].lon = rng.Float64() * 1000
		rows[i].text = fmt.Sprintf("unique%04d %s %s", i,
			shared[rng.Intn(len(shared))], shared[rng.Intn(len(shared))])
	}
	f := buildFixture(t, rows, 4, 2) // 2-byte leaf signatures: heavy saturation
	var ir2Nodes, mir2Nodes int
	for trial := 0; trial < 30; trial++ {
		p := geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
		kw := []string{fmt.Sprintf("unique%04d", rng.Intn(len(rows)))}
		_, s1, err := f.ir2.TopK(1, p, kw)
		if err != nil {
			t.Fatal(err)
		}
		_, s2, err := f.mir2.TopK(1, p, kw)
		if err != nil {
			t.Fatal(err)
		}
		ir2Nodes += s1.NodesLoaded
		mir2Nodes += s2.NodesLoaded
	}
	if mir2Nodes >= ir2Nodes {
		t.Errorf("MIR² loaded %d nodes vs IR² %d; expected fewer", mir2Nodes, ir2Nodes)
	}
}

func TestOptionsValidation(t *testing.T) {
	store := objstore.New(storage.NewDisk(4096))
	if _, err := New(storage.NewDisk(4096), store, Options{}); err == nil {
		t.Error("zero LeafSignature accepted")
	}
	if _, err := New(storage.NewDisk(4096), store, Options{
		LeafSignature: sigfile.Config{LengthBytes: 8, BitsPerWord: 4},
		Multilevel:    true,
	}); err == nil {
		t.Error("MIR² without AvgWordsPerObject accepted")
	}
}

func TestBuildEmptyStore(t *testing.T) {
	store := objstore.New(storage.NewDisk(4096))
	tree, err := New(storage.NewDisk(4096), store, Options{
		LeafSignature: sigfile.Config{LengthBytes: 8, BitsPerWord: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	res, _, err := tree.TopK(5, geo.NewPoint(0, 0), []string{"x"})
	if err != nil || len(res) != 0 {
		t.Errorf("empty tree query: %v, %v", res, err)
	}
}

// TestNormalizeConsistency: text containment and signatures use the same
// normalization, so mixed-case queries behave identically.
func TestNormalizeConsistencyAcrossLayers(t *testing.T) {
	f := buildFixture(t, figure1, 3, 16)
	a, _, err := f.ir2.TopK(5, geo.NewPoint(0, 0), []string{"Internet", "POOL"})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := f.ir2.TopK(5, geo.NewPoint(0, 0), []string{"internet", "pool"})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(resultIDs(a)) != fmt.Sprint(resultIDs(b)) {
		t.Errorf("case sensitivity leak: %v vs %v", resultIDs(a), resultIDs(b))
	}
}
