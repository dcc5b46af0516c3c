package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

func bruteWithinArea(objs []objstore.Object, area geo.Rect, keywords []string) []objstore.ID {
	kws := (*textutil.Analyzer)(nil).Keywords(keywords)
	var out []objstore.ID
	for _, o := range objs {
		if area.ContainsPoint(o.Point) && textutil.ContainsAll(o.Text, kws) {
			out = append(out, o.ID)
		}
	}
	return out
}

// decodedAreaWalk is the range query's tree walk written over decoded
// LoadNode images, as it read the tree before the packed image became the
// only read representation and the query became a pruned stream: the nodes
// it visits, what it prunes and enqueues as rtree.Iter counts them (an entry
// whose MBR misses the area or whose signature misses the query's is pruned;
// the rest are enqueued nodes or objects), and the candidate pointers it
// collects.
func decodedAreaWalk(t *testing.T, x *IR2Tree, area geo.Rect, keywords []string) (walk SearchStats, ptrs []objstore.Ptr) {
	t.Helper()
	sigs := &levelSigs{x: x, hashes: wordHashes(x.an.Keywords(keywords))}
	var visit func(n *rtree.Node)
	visit = func(n *rtree.Node) {
		walk.NodesLoaded++
		for i := 0; i < n.NumEntries(); i++ {
			ptr, rect, aux := n.Entry(i)
			if !rect.Intersects(area) || !matchesTolerant(sigs.at(n.Level()), aux) {
				walk.EntriesPruned++
				continue
			}
			if n.Level() == 0 {
				walk.ObjectsEnqueued++
				ptrs = append(ptrs, objstore.Ptr(ptr))
				continue
			}
			walk.NodesEnqueued++
			child, err := x.rt.LoadNode(storage.BlockID(ptr))
			if err != nil {
				t.Fatal(err)
			}
			visit(child)
		}
	}
	root, err := x.rt.Root()
	if err != nil {
		t.Fatal(err)
	}
	if root != nil {
		visit(root)
	}
	return walk, ptrs
}

// withinArea answers the range query as the engine does: SearchWithin on
// rows drained, in object-ID order, with the stream's stats.
func withinArea(x *IR2Tree, rows *Rows, area geo.Rect, keywords []string) ([]Result, SearchStats, error) {
	it := x.SearchWithin(area, keywords, rows)
	defer it.Close()
	out, err := TakeK(math.MaxInt, it.Next)
	if err != nil {
		return nil, it.Stats(), err
	}
	slices.SortFunc(out, func(a, b Result) int { return cmp.Compare(a.Object.ID, b.Object.ID) })
	return out, it.Stats(), nil
}

// TestWithinAreaMatchesBruteForce checks the range query's answers against a
// scan, and its SearchStats and index-device accesses against the decoded
// walk: neither packed images nor the pruned stream changed them. It runs on
// the generator's lower-case rows and on the same rows in mixed case with
// non-ASCII letters, which the false-positive filter must fold as Tokenize
// does.
func TestWithinAreaMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	withinAreaMatchesBruteForce(t, rng, randomRows(rng, 400),
		[][]string{{"pool"}, {"internet", "spa"}, {"gym", "bar", "wifi"}, nil})
	rng = rand.New(rand.NewSource(124))
	rows := randomRows(rng, 400)
	for i := range rows {
		words := strings.Fields(rows[i].text)
		for j, w := range words {
			words[j] = mixCase(rng, w)
		}
		rows[i].text = strings.Join(words, " ")
	}
	withinAreaMatchesBruteForce(t, rng, rows,
		[][]string{{"parking"}, {"Internet", "WIFI"}, {"breakfast", "bar"}, {"zürich", "pool"}})
}

// mixCase spells word as a document might: as is, capitalized, or in
// capitals — the capitals sometimes written with U+212A KELVIN SIGN for K
// and U+0130 for I, which lower-case to ASCII k and i — or run into a
// non-ASCII word across a non-ASCII separator.
func mixCase(rng *rand.Rand, word string) string {
	switch rng.Intn(5) {
	case 0:
		return word
	case 1:
		return strings.ToUpper(word[:1]) + word[1:]
	case 2:
		return strings.ToUpper(word)
	case 3:
		return strings.NewReplacer("K", "\u212A", "I", "\u0130").Replace(strings.ToUpper(word))
	default:
		return word + "\u00b7Zürich"
	}
}

func withinAreaMatchesBruteForce(t *testing.T, rng *rand.Rand, rows []struct {
	lat, lon float64
	text     string
}, keywords [][]string) {
	t.Helper()
	f := buildFixture(t, rows, 4, 8)
	for trial := 0; trial < 15; trial++ {
		lo := geo.NewPoint(rng.Float64()*900-100, rng.Float64()*900-100)
		area := geo.NewRect(lo, geo.NewPoint(lo[0]+rng.Float64()*400, lo[1]+rng.Float64()*400))
		kw := keywords[trial%len(keywords)]
		want := bruteWithinArea(f.objects, area, kw)
		for name, tree := range map[string]*IR2Tree{"IR2": f.sir2, "MIR2": f.smir2} {
			dev := tree.RTree().Device()
			dev.ResetStats()
			wantStats, ptrs := decodedAreaWalk(t, tree, area, kw)
			wantIO := dev.Stats()
			dev.ResetStats()
			got, stats, err := withinArea(tree, f.rows, area, kw)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(resultIDs(got)) != fmt.Sprint(want) {
				t.Fatalf("trial %d (%s): got %v, want %v", trial, name, resultIDs(got), want)
			}
			// Points have degenerate MBRs, so every candidate lies in the
			// area and the ones that are not answers are false positives,
			// tested in the row table; only the answers are read.
			wantStats.ObjectsLoaded, wantStats.FalsePositives = len(want), len(ptrs)-len(want)
			if stats != wantStats {
				t.Fatalf("trial %d (%s): stats %+v, decoded walk %+v", trial, name, stats, wantStats)
			}
			if io := dev.Stats(); io != wantIO {
				t.Fatalf("trial %d (%s): index device saw %+v, decoded walk %+v", trial, name, io, wantIO)
			}
		}
	}
}

// TestWithinAreaWideNodes runs the range query on a bulk-packed tree whose
// root holds more than 64 entries, so its survivor mask spans two words.
// Answers and stats must match brute force and the decoded walk.
func TestWithinAreaWideNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	store := objstore.New(newDisk())
	rows := randomRows(rng, 8000)
	for _, r := range rows {
		if _, _, err := store.Append(geo.NewPoint(r.lat, r.lon), r.text); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	var objs []objstore.Object
	if err := store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
		objs = append(objs, o)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	opts := Options{LeafSignature: f8(), MaxEntries: 100}
	table := rowTable(t, store, opts)
	tree, err := NewServed(newDisk(), store, opts, table)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BuildBulk(); err != nil {
		t.Fatal(err)
	}
	root, err := tree.RTree().Root()
	if err != nil {
		t.Fatal(err)
	}
	if root.NumEntries() <= 64 || root.Level() == 0 {
		t.Fatalf("root holds %d entries at level %d, want an interior node over 64", root.NumEntries(), root.Level())
	}
	for trial := 0; trial < 8; trial++ {
		lo := geo.NewPoint(rng.Float64()*600-100, rng.Float64()*600-100)
		area := geo.NewRect(lo, geo.NewPoint(lo[0]+200+rng.Float64()*400, lo[1]+200+rng.Float64()*400))
		kw := [][]string{{"pool"}, {"internet", "spa"}}[trial%2]
		want := bruteWithinArea(objs, area, kw)
		wantStats, ptrs := decodedAreaWalk(t, tree, area, kw)
		got, stats, err := withinArea(tree, table, area, kw)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(resultIDs(got)) != fmt.Sprint(want) || len(want) == 0 {
			t.Fatalf("trial %d: got %d results, brute force %d", trial, len(got), len(want))
		}
		wantStats.ObjectsLoaded, wantStats.FalsePositives = len(want), len(ptrs)-len(want)
		if stats != wantStats {
			t.Fatalf("trial %d: stats %+v, decoded walk %+v", trial, stats, wantStats)
		}
	}
}

func TestWithinAreaPrunesBySignature(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	rows := randomRows(rng, 300)
	f := buildFixture(t, rows, 4, 16)
	// A huge area with an absent keyword: spatial pruning does nothing,
	// signature pruning must keep work near zero.
	area := geo.NewRect(geo.NewPoint(-1e6, -1e6), geo.NewPoint(1e6, 1e6))
	got, stats, err := withinArea(f.sir2, f.rows, area, []string{"xyzzy"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d results for absent keyword", len(got))
	}
	if stats.ObjectsLoaded > 3 {
		t.Errorf("loaded %d objects; signature pruning ineffective", stats.ObjectsLoaded)
	}
	// Same area, common keyword: everything matching comes back.
	got, _, err = withinArea(f.sir2, f.rows, area, []string{"pool"})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteWithinArea(f.objects, area, []string{"pool"})
	if len(got) != len(want) {
		t.Errorf("got %d, want %d", len(got), len(want))
	}
}

func TestWithinAreaEmptyTree(t *testing.T) {
	store := objstore.New(newDisk())
	opts := Options{LeafSignature: f8()}
	table := rowTable(t, store, opts)
	tree, err := NewServed(newDisk(), store, opts, table)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := withinArea(tree, table, geo.NewRect(geo.NewPoint(0, 0), geo.NewPoint(1, 1)), []string{"x"})
	if err != nil || got != nil {
		t.Errorf("empty tree: %v %v", got, err)
	}
}
