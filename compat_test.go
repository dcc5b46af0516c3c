package spatialkeyword_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spatialkeyword"
)

// TestCompatParentBareLeafDirectory opens (from a copy) testdata/compat's
// single-f6fd472: 600 rows packed into bare leaves whose entries are a
// pointer and a rectangle, 40 bytes each and 102 to a leaf, under a level
// the pack gave no signature. The open packs its live rows into a new tree
// of point leaves that name rows by ID, 170 to a one-block leaf; a top-k
// answers what it did at the commit that wrote the directory, and adds
// keep the layout through a save and a reopen.
func TestCompatParentBareLeafDirectory(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, dir, filepath.Join("testdata/compat", "single-f6fd472"))
	want := []uint64{360, 388, 220, 416, 192, 248, 164}
	e, err := spatialkeyword.OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkCompatTopK(t, e, 7, []float64{25.9, -80.6}, []string{"sushi", "pool"}, want, 7, 5)
	for i := 600; i < 900; i++ {
		p, text := compatRow(i)
		if _, err := e.Add(p, text); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Save(); err != nil {
		t.Fatal(err)
	}
	checkCompatTopK(t, e, 7, []float64{25.9, -80.6}, []string{"sushi", "pool"}, want, 9, 3)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = spatialkeyword.OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	checkCompatTopK(t, e, 7, []float64{25.9, -80.6}, []string{"sushi", "pool"}, want, 9, 3)
	checkCompatTopK(t, e, 5, []float64{27.4, -81.5}, []string{"pool"}, []uint64{792, 784, 756, 828, 820}, 7, 2)
}

// TestCompatParentOffsetLeafDirectory opens (from a copy) testdata/compat's
// single-d522542: 600 rows packed into point leaves whose entries name each
// row by its object-file offset, then 120 adds and 4 deletes that only its
// log holds. The open packs every row into a new tree of point leaves of
// row IDs before the log replays onto it; the answers are the ones measured
// at the commit that wrote the directory, and adds keep the layout through
// a save and a reopen.
func TestCompatParentOffsetLeafDirectory(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, dir, filepath.Join("testdata/compat", "single-d522542"))
	// blocks are the random and sequential blocks of the two top-ks.
	check := func(e *spatialkeyword.Engine, pool []uint64, blocks [4]uint64) {
		t.Helper()
		checkCompatTopK(t, e, 7, []float64{25.9, -80.6}, []string{"sushi", "pool"}, []uint64{360, 388, 220, 416, 192, 248, 164}, blocks[0], blocks[1])
		checkCompatTopK(t, e, 5, []float64{27.4, -81.5}, []string{"pool"}, pool, blocks[2], blocks[3])
		res, err := e.TopKRanked(5, []float64{26.5, -80.9}, "thai", "wifi")
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(rankedIDs(res)); got != "[540 470 400 330 260]" {
			t.Fatalf("ranked top 5 \"thai wifi\": %s, want [540 470 400 330 260]", got)
		}
	}
	e, err := spatialkeyword.OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.WALInfo().ReplayedRecords; got != 124 {
		t.Fatalf("replayed %d records, want the log's 124", got)
	}
	check(e, []uint64{644, 616, 672, 652, 680}, [4]uint64{7, 5, 5, 3})
	for i := 720; i < 1000; i++ {
		p, text := compatRow(i)
		if _, err := e.Add(p, text); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Save(); err != nil {
		t.Fatal(err)
	}
	check(e, []uint64{792, 784, 756, 828, 820}, [4]uint64{8, 4, 7, 2})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = spatialkeyword.OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	check(e, []uint64{792, 784, 756, 828, 820}, [4]uint64{8, 4, 7, 2})
}

// checkCompatTopK runs CheckTree on e, requires its leaves to be point
// leaves of 170 to a block, and a top-k to answer want in the given index
// blocks.
func checkCompatTopK(t *testing.T, e *spatialkeyword.Engine, k int, p []float64, kws []string, want []uint64, random, sequential uint64) {
	t.Helper()
	spatialkeyword.CheckTree(t, e)
	if capacity, blocks := spatialkeyword.LeafLayout(e); capacity != 170 || blocks != 1 {
		t.Fatalf("a leaf holds %d entries in %d blocks, want the 170 point entries of one block", capacity, blocks)
	}
	res, st, err := e.TopKWithStats(k, p, kws...)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ids(res)) != fmt.Sprint(want) || st.BlocksRandom != random || st.BlocksSequential != sequential {
		t.Fatalf("top %d %q: %v in %d random and %d sequential blocks, want %v in %d and %d",
			k, kws, ids(res), st.BlocksRandom, st.BlocksSequential, want, random, sequential)
	}
}

// TestCompatParentRepackSurvivesCrash opens (from a copy) every engine
// directory of testdata/compat, which packs its rows into a new tree, and
// closes it without a Save, as a crash after the open would leave it. The
// next open packs again and answers the same; no generation's files, no
// manifest and no log differ from the copy's: only the working files
// objects.db and index.db are rewritten.
func TestCompatParentRepackSurvivesCrash(t *testing.T) {
	for _, fixture := range compatFixtures {
		t.Run(fixture, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, dir, filepath.Join("testdata/compat", fixture))
			committed := committedFiles(t, dir)
			var answers [2]string
			for i := range answers {
				e, err := spatialkeyword.OpenEngine(dir)
				if err != nil {
					t.Fatal(err)
				}
				answers[i] = compatAnswers(t, e)
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				for name, data := range committed {
					got, err := os.ReadFile(filepath.Join(dir, name))
					if err != nil || !bytes.Equal(got, data) {
						t.Fatalf("open %d changed %s (%v)", i+1, name, err)
					}
				}
			}
			if answers[0] != answers[1] || answers[0] == "[] [] []" {
				t.Fatalf("answers after the first open %s, after the second %s", answers[0], answers[1])
			}
		})
	}
}

// compatFixtures is every engine directory of testdata/compat.
var compatFixtures = []string{"single-ae80bff", "single-nowal-ae80bff", "nested-ae80bff/shard-0000", "single-f6fd472", "single-d522542"}

// compatAnswers runs CheckTree on e and returns its answers to a top-k, a
// ranked top-k and a range query over a compat fixture's rows.
func compatAnswers(t *testing.T, e *spatialkeyword.Engine) string {
	t.Helper()
	spatialkeyword.CheckTree(t, e)
	top, err := e.TopK(7, []float64{25.3, -79.7}, "cafe")
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := e.TopKRanked(7, []float64{25.3, -79.7}, "pool", "wifi")
	if err != nil {
		t.Fatal(err)
	}
	within, _, err := e.WithinArea([]float64{25, -80.2}, []float64{25.6, -79.5}, "cafe")
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(ids(top), rankedIDs(ranked), ids(within))
}

// TestCompatParentSavesPrefixForm opens (from a copy) every engine directory
// of testdata/compat, whose generations an older build committed with an
// objects.<G>.db copy each, saves it twice and reopens it. The first Save
// commits objects.db's prefix and the second prunes the copies, so no
// objects.<G>.db is left; every answer is the one the first open gave, and
// on the two 600-row fixtures the top 7 for "sushi pool" is the one
// TestCompatParentBareLeafDirectory and TestCompatParentOffsetLeafDirectory
// pin.
func TestCompatParentSavesPrefixForm(t *testing.T) {
	for _, fixture := range compatFixtures {
		t.Run(fixture, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, dir, filepath.Join("testdata/compat", fixture))
			e, err := spatialkeyword.OpenEngine(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := compatAnswers(t, e)
			for i := 0; i < 2; i++ {
				if err := e.Save(); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if copies, err := filepath.Glob(filepath.Join(dir, "objects.*.db")); err != nil || copies != nil {
				t.Fatalf("after two Saves: %v (%v)", copies, err)
			}
			if e, err = spatialkeyword.OpenEngine(dir); err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if got := compatAnswers(t, e); got != want {
				t.Fatalf("answers after two Saves and a reopen %s, after the first open %s", got, want)
			}
			if fixture == "single-f6fd472" || fixture == "single-d522542" {
				res, err := e.TopK(7, []float64{25.9, -80.6}, "sushi", "pool")
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprint(ids(res)); got != "[360 388 220 416 192 248 164]" {
					t.Fatalf("top 7 \"sushi pool\": %s, want [360 388 220 416 192 248 164]", got)
				}
			}
		})
	}
}

// TestCompatGenerationZeroRepackRefused opens a generation-0 copy of
// testdata/compat's single-d522542 — its generation-2 snapshot as the
// working files, under a manifest of generation 0, as a directory written
// before snapshots is laid out — whose tree is in an older leaf layout. No
// committed copy of its index exists to re-pack from, so the open refuses
// it, twice, and leaves every file as it was: a re-pack would rewrite
// index.db, and a reopen after no Save would find the manifest's tree
// state pointing into the new file.
func TestCompatGenerationZeroRepackRefused(t *testing.T) {
	src := filepath.Join("testdata/compat", "single-d522542")
	dir := t.TempDir()
	for from, to := range map[string]string{"objects.2.db": "objects.db", "index.2.db": "index.db"} {
		data, err := os.ReadFile(filepath.Join(src, from))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, to), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(src, "manifest.2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["generation"] = 0
	m["config"].(map[string]any)["WAL"] = false
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := map[string][]byte{}
	for _, name := range []string{"objects.db", "index.db", "manifest.json"} {
		if before[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 2; i++ {
		e, err := spatialkeyword.OpenEngine(dir)
		if err == nil {
			e.Close() // dropped without a Save
		}
		if !errors.Is(err, spatialkeyword.ErrRepackUncommitted) {
			t.Errorf("open %d: %v, want ErrRepackUncommitted", i, err)
		}
		for name, data := range before {
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("open %d changed %s (%v)", i, name, err)
			}
		}
	}
}

// committedFiles returns the bytes of every file of an engine directory but
// its working files, objects.db and index.db, keyed by name.
func committedFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, de := range entries {
		if de.IsDir() || de.Name() == "objects.db" || de.Name() == "index.db" {
			continue
		}
		if files[de.Name()], err = os.ReadFile(filepath.Join(dir, de.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
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
