package invindex

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// figure1 is the paper's hotel dataset: name + amenities per hotel H1..H8.
var figure1 = []struct {
	lat, lon float64
	text     string
}{
	{25.4, -80.1, "Hotel A tennis court, gift shop, spa, Internet"},
	{47.3, -122.2, "Hotel B wireless Internet, pool, golf course"},
	{35.5, 139.4, "Hotel C spa, continental suites, pool"},
	{39.5, 116.2, "Hotel D sauna, pool, conference rooms"},
	{51.3, -0.5, "Hotel E dry cleaning, free lunch, pets"},
	{40.4, -73.5, "Hotel F safe box, concierge, internet, pets"},
	{-33.2, -70.4, "Hotel G Internet, airport transportation, pool"},
	{-41.1, 174.4, "Hotel H wake up service, no pets, pool"},
}

// buildFigure1 loads Figure 1 into an object store and an inverted index
// keyed by object-file pointers, as in the paper's setup.
func buildFigure1(t *testing.T) (*Index, *objstore.Store, []objstore.Ptr, *storage.Disk) {
	t.Helper()
	objDisk := storage.NewDisk(4096)
	store := objstore.New(objDisk)
	ixDisk := storage.NewDisk(4096)
	ix := New(ixDisk)
	var ptrs []objstore.Ptr
	for _, h := range figure1 {
		_, ptr, _ := store.Append(geo.NewPoint(h.lat, h.lon), h.text)
		ix.AddDocument(uint64(ptr), h.text)
		ptrs = append(ptrs, ptr)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	return ix, store, ptrs, ixDisk
}

func TestPostingsFigure1(t *testing.T) {
	ix, _, ptrs, _ := buildFigure1(t)
	// Paper Example 2: "internet" → H1, H2, H6, H7; "pool" → H2, H3, H4, H7, H8.
	tests := []struct {
		word string
		want []int // hotel indexes (0-based)
	}{
		{"internet", []int{0, 1, 5, 6}},
		{"pool", []int{1, 2, 3, 6, 7}},
		{"pets", []int{4, 5, 7}},
		{"sauna", []int{3}},
		{"nonexistent", nil},
	}
	for _, tt := range tests {
		t.Run(tt.word, func(t *testing.T) {
			got, err := ix.Postings(tt.word)
			if err != nil {
				t.Fatal(err)
			}
			var want []uint64
			for _, i := range tt.want {
				want = append(want, uint64(ptrs[i]))
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Postings(%q) = %v, want %v", tt.word, got, want)
			}
		})
	}
}

func TestIntersectFigure1(t *testing.T) {
	ix, _, ptrs, _ := buildFigure1(t)
	// Paper Example 2 step 3: {internet, pool} → H2, H7.
	got, err := ix.Intersect([]string{"internet", "pool"})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{uint64(ptrs[1]), uint64(ptrs[6])}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	// Intersection with an unknown word is empty.
	if got, err := ix.Intersect([]string{"internet", "zzz"}); err != nil || got != nil {
		t.Errorf("Intersect with unknown = %v, %v", got, err)
	}
	// Empty keyword list.
	if got, err := ix.Intersect(nil); err != nil || got != nil {
		t.Errorf("Intersect(nil) = %v, %v", got, err)
	}
	// Three-way.
	got, err = ix.Intersect([]string{"internet", "pool", "airport"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []uint64{uint64(ptrs[6])}) {
		t.Errorf("3-way intersect = %v", got)
	}
}

// TestPaperExample2 replays the full IIO trace: top-2 from [30.5, 100.0]
// with {internet, pool} returns H7 (181.9) then H2 (222.8).
func TestPaperExample2(t *testing.T) {
	ix, store, ptrs, _ := buildFigure1(t)
	results, stats, err := TopK(ix, store, 2, geo.NewPoint(30.5, 100.0), []string{"internet", "pool"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Object.ID != 6 || results[1].Object.ID != 1 {
		t.Errorf("order = H%d, H%d; want H7, H2", results[0].Object.ID+1, results[1].Object.ID+1)
	}
	if d := results[0].Dist; d < 181.9 || d > 182.0 {
		t.Errorf("H7 distance = %g, want ≈181.9 (paper)", d)
	}
	if d := results[1].Dist; d < 222.8 || d > 222.9 {
		t.Errorf("H2 distance = %g, want ≈222.8 (paper)", d)
	}
	// |V| = {H2, H7}: IIO loads every object of the intersection.
	if stats.ObjectsLoaded != 2 {
		t.Errorf("stats = %+v", stats)
	}
	_ = ptrs
}

func TestTopKCaseInsensitiveAndKClamp(t *testing.T) {
	ix, store, _, _ := buildFigure1(t)
	// Keywords arrive unnormalized.
	results, _, err := TopK(ix, store, 10, geo.NewPoint(30.5, 100.0), []string{"INTERNET", "Pool"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Errorf("k larger than matches: got %d results, want 2", len(results))
	}
	// k = 0.
	results, _, err = TopK(ix, store, 0, geo.NewPoint(0, 0), []string{"pool"})
	if err != nil || results != nil {
		t.Errorf("k=0: %v, %v", results, err)
	}
}

func TestTopKIndependentOfK(t *testing.T) {
	// IIO loads the full candidate set whatever k is.
	ix, store, _, _ := buildFigure1(t)
	_, s1, err := TopK(ix, store, 1, geo.NewPoint(0, 0), []string{"pool"})
	if err != nil {
		t.Fatal(err)
	}
	_, s5, err := TopK(ix, store, 5, geo.NewPoint(0, 0), []string{"pool"})
	if err != nil {
		t.Fatal(err)
	}
	if s1.ObjectsLoaded != s5.ObjectsLoaded || s1.ObjectsLoaded != 5 {
		t.Errorf("objects loaded: k=1 %d, k=5 %d, want both 5", s1.ObjectsLoaded, s5.ObjectsLoaded)
	}
}

func TestBuildLifecycle(t *testing.T) {
	ix := New(storage.NewDisk(4096))
	ix.Add(1, []string{"a", "b", "a", ""})
	if ix.DocFreq("a") != 1 {
		t.Error("duplicate word posted twice")
	}
	if ix.DocFreq("") != 0 {
		t.Error("empty word posted")
	}
	if _, err := ix.Postings("a"); err == nil {
		t.Error("Postings before Build succeeded")
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err == nil {
		t.Error("second Build succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("Add after Build did not panic")
		}
	}()
	ix.Add(2, []string{"c"})
}

func TestEmptyIndex(t *testing.T) {
	ix := New(storage.NewDisk(4096))
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	if got, err := ix.Postings("anything"); err != nil || got != nil {
		t.Errorf("Postings on empty = %v, %v", got, err)
	}
	if ix.NumWords() != 0 || ix.SizeBytes() != 0 {
		t.Errorf("empty index: words=%d size=%d", ix.NumWords(), ix.SizeBytes())
	}
}

// blockReads is a Stats' block reads of either kind.
func blockReads(st storage.Stats) uint64 { return st.RandomReads + st.SequentialReads }

func TestPostingsIOAccounting(t *testing.T) {
	disk := storage.NewDisk(4096)
	ix := New(disk)
	// One rare word and one word common enough to span several blocks.
	for i := 0; i < 20000; i++ {
		words := []string{"common"}
		if i == 7 {
			words = append(words, "rare")
		}
		ix.Add(uint64(i)*64, words)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	disk.ResetStats()
	if _, err := ix.Postings("rare"); err != nil {
		t.Fatal(err)
	}
	if reads := blockReads(disk.Stats()); reads != 1 {
		t.Errorf("rare word read %d blocks, want 1", reads)
	}
	disk.ResetStats()
	refs, err := ix.Postings("common")
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 20000 {
		t.Fatalf("common postings = %d", len(refs))
	}
	common := disk.Stats()
	if reads := blockReads(common); reads < 5 {
		t.Errorf("common word read %d blocks, want several", reads)
	}
	if common.RandomReads != 1 {
		t.Errorf("long list should be 1 random + sequential, got %+v", common)
	}
}

func TestQuickIntersectMatchesSetSemantics(t *testing.T) {
	f := func(docs [][]byte, q1, q2 uint8) bool {
		ix := New(storage.NewDisk(4096))
		vocab := []string{"a", "b", "c", "d", "e"}
		contents := make([]map[string]bool, len(docs))
		for i, d := range docs {
			var words []string
			set := make(map[string]bool)
			for _, w := range d {
				v := vocab[int(w)%len(vocab)]
				words = append(words, v)
				set[v] = true
			}
			contents[i] = set
			ix.Add(uint64(i), words)
		}
		if err := ix.Build(); err != nil {
			return false
		}
		query := []string{vocab[int(q1)%len(vocab)], vocab[int(q2)%len(vocab)]}
		got, err := ix.Intersect(query)
		if err != nil {
			return false
		}
		var want []uint64
		for i, set := range contents {
			if set[query[0]] && set[query[1]] {
				want = append(want, uint64(i))
			}
		}
		return reflect.DeepEqual(got, want)
	}
	cfg := &quick.Config{MaxCount: 200, Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestIntersectSortedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		a := randSortedSet(rng, 50)
		b := randSortedSet(rng, 50)
		want := bruteIntersect(a, b)
		if got := intersectSorted(nil, a, b); !slices.Equal(got, want) {
			t.Fatalf("intersectSorted(%v, %v) = %v, want %v", a, b, got, want)
		}
		// In place, as Intersect runs it: the result overwrites a's prefix.
		if inPlace := intersectSorted(a[:0], a, b); !slices.Equal(inPlace, want) {
			t.Fatalf("intersectSorted in place on (%v, %v) = %v, want %v", a, b, inPlace, want)
		}
	}
}

// TestIntersectResultsDoNotAlias: Intersect works in pooled scratch, but
// what it returns is the caller's. A later Intersect — on other words, on a
// list with a tail, or after the caller wrote to an earlier result — never
// changes a result already returned, and AppendIntersect keeps dst's prefix.
func TestIntersectResultsDoNotAlias(t *testing.T) {
	ix := New(storage.NewDisk(256))
	for i := 0; i < 3000; i++ {
		ix.Add(uint64(i), []string{"all", fmt.Sprintf("m%d", i%7), fmt.Sprintf("n%d", i%11)})
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	for i := 3000; i < 3100; i++ {
		if err := ix.Append(uint64(i), []string{"all", fmt.Sprintf("m%d", i%7)}); err != nil {
			t.Fatal(err)
		}
	}
	want := func(pred func(i int) bool) []uint64 {
		var out []uint64
		for i := 0; i < 3100; i++ {
			if pred(i) {
				out = append(out, uint64(i))
			}
		}
		return out
	}
	first, err := ix.Intersect([]string{"all", "m3"})
	if err != nil {
		t.Fatal(err)
	}
	firstWant := want(func(i int) bool { return i%7 == 3 })
	if !slices.Equal(first, firstWant) {
		t.Fatalf("Intersect(all, m3) has %d refs, want %d", len(first), len(firstWant))
	}
	second, err := ix.Intersect([]string{"n5", "all", "m1"})
	if err != nil {
		t.Fatal(err)
	}
	if w := want(func(i int) bool { return i < 3000 && i%11 == 5 && i%7 == 1 }); !slices.Equal(second, w) {
		t.Fatalf("Intersect(n5, all, m1) = %v, want %v", second, w)
	}
	if !slices.Equal(first, firstWant) {
		t.Fatal("a second Intersect changed the first one's result")
	}
	for i := range second {
		second[i] = 1 << 60
	}
	again, err := ix.Intersect([]string{"all", "m3"})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again, firstWant) || !slices.Equal(first, firstWant) {
		t.Fatal("writing to a returned result changed what Intersect returns")
	}
	dst := []uint64{7, 8}
	got, err := ix.AppendIntersect(dst, []string{"m3", "all"})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got[:2], []uint64{7, 8}) || !slices.Equal(got[2:], firstWant) {
		t.Fatalf("AppendIntersect onto [7 8] = %v..., want [7 8] then Intersect's refs", got[:min(len(got), 4)])
	}
}

// TestIntersectMatchesBruteForce: lists with one-byte and multi-byte
// deltas, of very different lengths, with and without a tail, intersect to
// exactly the documents that hold every word.
func TestIntersectMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vocab := []string{"a", "b", "c", "d"}
	// Word i lands in a document with probability odds[i].
	odds := []float64{0.9, 0.3, 0.05, 0.5}
	for trial := 0; trial < 20; trial++ {
		ix := New(storage.NewDisk(128))
		docs := map[uint64]map[string]bool{}
		ref := uint64(0)
		post := func(built bool) {
			ref += 1 + uint64(rng.Intn(3))
			if rng.Intn(4) == 0 {
				ref += uint64(rng.Intn(1 << 20)) // a multi-byte delta
			}
			var words []string
			set := map[string]bool{}
			for i, w := range vocab {
				if rng.Float64() < odds[i] {
					words = append(words, w)
					set[w] = true
				}
			}
			docs[ref] = set
			if built {
				if err := ix.Append(ref, words); err != nil {
					t.Fatal(err)
				}
			} else {
				ix.Add(ref, words)
			}
		}
		for i := 0; i < 500; i++ {
			post(false)
		}
		if err := ix.Build(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < trial*5; i++ {
			post(true)
		}
		for _, q := range [][]string{{"a", "b"}, {"c", "a"}, {"a", "d", "b"}, {"b", "c", "d", "a"}} {
			got, err := ix.Intersect(q)
			if err != nil {
				t.Fatal(err)
			}
			var want []uint64
			for r, set := range docs {
				if !slices.ContainsFunc(q, func(w string) bool { return !set[w] }) {
					want = append(want, r)
				}
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: Intersect(%v) has %d refs, want %d", trial, q, len(got), len(want))
			}
		}
	}
}

func randSortedSet(rng *rand.Rand, maxLen int) []uint64 {
	n := rng.Intn(maxLen)
	set := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		set[uint64(rng.Intn(100))] = true
	}
	out := make([]uint64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func bruteIntersect(a, b []uint64) []uint64 {
	inB := make(map[uint64]bool, len(b))
	for _, v := range b {
		inB[v] = true
	}
	out := make([]uint64, 0)
	for _, v := range a {
		if inB[v] {
			out = append(out, v)
		}
	}
	return out
}

func TestDocFreqLargeVocabulary(t *testing.T) {
	ix := New(storage.NewDisk(4096))
	const nDocs = 500
	rng := rand.New(rand.NewSource(13))
	freq := make(map[string]int)
	for i := 0; i < nDocs; i++ {
		var words []string
		seen := make(map[string]bool)
		for j := 0; j < 10; j++ {
			w := fmt.Sprintf("word%03d", rng.Intn(100))
			words = append(words, w)
			if !seen[w] {
				seen[w] = true
				freq[w]++
			}
		}
		ix.Add(uint64(i), words)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	for w, want := range freq {
		if got := ix.DocFreq(w); got != want {
			t.Fatalf("DocFreq(%q) = %d, want %d", w, got, want)
		}
		refs, err := ix.Postings(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) != want {
			t.Fatalf("Postings(%q) length %d, want %d", w, len(refs), want)
		}
	}
	if ix.NumWords() != len(freq) {
		t.Errorf("NumWords = %d, want %d", ix.NumWords(), len(freq))
	}
}

func TestTopKPropagatesStoreError(t *testing.T) {
	ix, store, _, _ := buildFigure1(t)
	_ = store
	// Build a store on a faulty disk.
	badDisk := storage.NewDisk(4096)
	badStore := objstore.New(badDisk)
	for _, h := range figure1 {
		badStore.Append(geo.NewPoint(h.lat, h.lon), h.text)
	}
	if err := badStore.Sync(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("bad sector")
	badDisk.SetFault(func(op storage.Op, id storage.BlockID) error {
		if op == storage.OpRead {
			return boom
		}
		return nil
	})
	_, _, err := TopK(ix, badStore, 2, geo.NewPoint(0, 0), []string{"pool"})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want fault", err)
	}
}

func TestNormalizationConsistency(t *testing.T) {
	// Documents indexed via AddDocument must be findable with any casing.
	ix, _, _, _ := buildFigure1(t)
	for _, w := range []string{"internet", "Internet", "INTERNET"} {
		norm := (*textutil.Analyzer)(nil).Keywords([]string{w})
		refs, err := ix.Intersect(norm)
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) != 4 {
			t.Errorf("%q matched %d hotels, want 4", w, len(refs))
		}
	}
}
