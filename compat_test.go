package spatialkeyword_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"spatialkeyword"
)

// TestCompatParentBareLeafDirectory opens (from a copy) testdata/compat's
// single-f6fd472: 600 rows packed into bare leaves whose entries are a
// pointer and a rectangle, 40 bytes each and 102 to a leaf, under a level
// the pack gave no signature. The tree opens with that layout, a top-k
// answers and costs what it did at the commit that wrote it, and adds (a
// flush's Guttman inserts into those leaves) keep the layout through a save
// and a reopen.
func TestCompatParentBareLeafDirectory(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, dir, filepath.Join("testdata/compat", "single-f6fd472"))
	check := func(e *spatialkeyword.Engine, want []uint64, random, sequential uint64) {
		t.Helper()
		spatialkeyword.CheckTree(t, e)
		if got := fmt.Sprint(e.Stats().SignatureBytesByLevel); got != "[64 0]" {
			t.Fatalf("signature bytes by level %s, want [64 0]", got)
		}
		if capacity, blocks := spatialkeyword.LeafLayout(e); capacity != 102 || blocks != 1 {
			t.Fatalf("a leaf holds %d entries in %d blocks, want the 102 40-byte entries of one block", capacity, blocks)
		}
		res, st, err := e.TopKWithStats(7, []float64{25.9, -80.6}, "sushi", "pool")
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ids(res)) != fmt.Sprint(want) || st.BlocksRandom != random || st.BlocksSequential != sequential {
			t.Fatalf("top 7 \"sushi pool\": %v in %d random and %d sequential blocks, want %v in %d and %d",
				ids(res), st.BlocksRandom, st.BlocksSequential, want, random, sequential)
		}
	}

	e, err := spatialkeyword.OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(e, []uint64{360, 388, 220, 416, 192, 248, 164}, 7, 5)
	for i := 600; i < 900; i++ {
		p, text := compatRow(i)
		if _, err := e.Add(p, text); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Save(); err != nil {
		t.Fatal(err)
	}
	check(e, []uint64{360, 388, 220, 416, 192, 248, 164}, 8, 4)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = spatialkeyword.OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	check(e, []uint64{360, 388, 220, 416, 192, 248, 164}, 8, 4)
	res, st, err := e.TopKWithStats(5, []float64{27.4, -81.5}, "pool")
	if err != nil {
		t.Fatal(err)
	}
	const want = "[792 784 756 828 820] in 6 random and 2 sequential blocks"
	if got := fmt.Sprintf("%v in %d random and %d sequential blocks", ids(res), st.BlocksRandom, st.BlocksSequential); got != want {
		t.Fatalf("top 5 \"pool\" among the added rows: %s, want %s", got, want)
	}
}

// compatRow is row i of testdata/compat's generator (see its README).
func compatRow(i int) ([]float64, string) {
	cuisines := []string{"cuban", "thai", "pizza", "sushi", "vegan", "bbq", "bakery"}
	extras := []string{"wifi", "patio", "espresso", "cocktails", "delivery"}
	p := []float64{25 + float64(i%9)*0.11 + float64(i)*0.003, -80 + float64(i%7)*0.13 - float64(i)*0.002}
	text := fmt.Sprintf("%s cafe %s %s", cuisines[i%len(cuisines)], extras[i%len(extras)], extras[(i/2)%len(extras)])
	if i%4 == 0 {
		text += " late night pool"
	}
	return p, text
}
