package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/invindex"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// figure1 is the paper's running-example dataset (Figure 1).
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

// fixture bundles every structure built over one dataset.
type fixture struct {
	store    *objstore.Store
	objDisk  *storage.Disk
	ptrs     []objstore.Ptr
	objects  []objstore.Object
	ir2      *IR2Tree
	ir2Disk  *storage.Disk
	mir2     *IR2Tree
	mir2Disk *storage.Disk
	base     *RTreeBaseline
	baseDisk *storage.Disk
	inv      *invindex.Index
	invDisk  *storage.Disk
	vocab    *textutil.Vocabulary
}

// buildFixture loads the given rows into an object store and constructs all
// four index structures with small node capacity (so trees have real depth)
// and the given leaf signature length.
func buildFixture(t *testing.T, rows []struct {
	lat, lon float64
	text     string
}, maxEntries, sigBytes int) *fixture {
	t.Helper()
	f := &fixture{
		objDisk:  storage.NewDisk(4096),
		ir2Disk:  storage.NewDisk(4096),
		mir2Disk: storage.NewDisk(4096),
		baseDisk: storage.NewDisk(4096),
		invDisk:  storage.NewDisk(4096),
		vocab:    textutil.NewVocabulary(),
	}
	f.store = objstore.New(f.objDisk)
	for _, r := range rows {
		_, ptr, _ := f.store.Append(geo.NewPoint(r.lat, r.lon), r.text)
		f.ptrs = append(f.ptrs, ptr)
		f.vocab.AddDoc(r.text)
	}
	if err := f.store.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		obj, err := f.store.Get(f.ptrs[i])
		if err != nil {
			t.Fatal(err)
		}
		f.objects = append(f.objects, obj)
	}

	leaf := sigfile.Config{LengthBytes: sigBytes, BitsPerWord: sigfile.DefaultBitsPerWord}
	var err error
	f.ir2, err = New(f.ir2Disk, f.store, Options{
		LeafSignature: leaf, MaxEntries: maxEntries,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.mir2, err = New(f.mir2Disk, f.store, Options{
		LeafSignature: leaf, MaxEntries: maxEntries, Multilevel: true,
		AvgWordsPerObject: f.vocab.AvgUniqueWordsPerDoc(),
		VocabSize:         f.vocab.NumWords(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.base, err = NewRTreeBaseline(f.baseDisk, f.store, 2, maxEntries)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []interface{ Build() error }{f.ir2, f.mir2, f.base} {
		if err := b.Build(); err != nil {
			t.Fatal(err)
		}
	}
	f.inv = invindex.New(f.invDisk)
	if err := f.store.Scan(func(o objstore.Object, p objstore.Ptr) error {
		f.inv.AddDocument(uint64(p), o.Text)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.inv.Build(); err != nil {
		t.Fatal(err)
	}
	return f
}

// newDisk returns a fresh 4 KB-block disk.
func newDisk() *storage.Disk { return storage.NewDisk(4096) }

// f8 is a common 8-byte leaf signature configuration.
func f8() sigfile.Config {
	return sigfile.Config{LengthBytes: 8, BitsPerWord: sigfile.DefaultBitsPerWord}
}

// bruteTopK is the reference distance-first query: filter by containment,
// sort by distance (ties by ID), take k.
func bruteTopK(objs []objstore.Object, k int, p geo.Point, keywords []string) []objstore.Object {
	kws := textutil.NormalizeAll(keywords)
	var matches []objstore.Object
	for _, o := range objs {
		if textutil.ContainsAll(o.Text, kws) {
			matches = append(matches, o)
		}
	}
	sort.Slice(matches, func(i, j int) bool {
		di, dj := p.Dist(matches[i].Point), p.Dist(matches[j].Point)
		if di != dj {
			return di < dj
		}
		return matches[i].ID < matches[j].ID
	})
	if len(matches) > k {
		matches = matches[:k]
	}
	return matches
}

// randomRows produces a synthetic clustered dataset over a small vocabulary.
func randomRows(rng *rand.Rand, n int) []struct {
	lat, lon float64
	text     string
} {
	vocab := []string{
		"internet", "pool", "spa", "sauna", "gym", "bar", "parking",
		"pets", "breakfast", "wifi", "golf", "beach", "airport", "shuttle",
	}
	rows := make([]struct {
		lat, lon float64
		text     string
	}, n)
	for i := range rows {
		cx, cy := float64(rng.Intn(5))*200, float64(rng.Intn(5))*200
		rows[i].lat = cx + rng.NormFloat64()*30
		rows[i].lon = cy + rng.NormFloat64()*30
		nw := 1 + rng.Intn(6)
		text := fmt.Sprintf("place %d:", i)
		for j := 0; j < nw; j++ {
			text += " " + vocab[rng.Intn(len(vocab))]
		}
		rows[i].text = text
	}
	return rows
}

// topKArea and topKRanked are the first k results of SearchArea and
// SearchRanked with the traversal's work, as a top-k caller takes them.
func topKArea(x *IR2Tree, k int, area geo.Rect, keywords []string) ([]Result, SearchStats, error) {
	it := x.SearchArea(area, keywords)
	results, err := TakeK(k, it.Next)
	it.Close()
	return results, it.Stats(), err
}

func topKRanked(x *IR2Tree, k int, p geo.Point, keywords []string, opts GeneralOptions) ([]RankedResult, SearchStats, error) {
	it := x.SearchRanked(p, keywords, opts)
	results, err := TakeK(k, it.Next)
	it.Close()
	return results, it.Stats(), err
}

// resultIDs extracts object IDs from distance-first results.
func resultIDs(rs []Result) []objstore.ID {
	ids := make([]objstore.ID, len(rs))
	for i, r := range rs {
		ids[i] = r.Object.ID
	}
	return ids
}

// objIDs extracts object IDs from raw objects.
func objIDs(os []objstore.Object) []objstore.ID {
	ids := make([]objstore.ID, len(os))
	for i, o := range os {
		ids[i] = o.ID
	}
	return ids
}
