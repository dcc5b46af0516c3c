package spatialkeyword

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func newEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// addFigure1 loads the paper's running-example hotels.
func addFigure1(t *testing.T, e *Engine) {
	t.Helper()
	rows := []struct {
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
	for _, r := range rows {
		if _, err := e.Add([]float64{r.lat, r.lon}, r.text); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEngineQuickstart(t *testing.T) {
	e := newEngine(t, Config{})
	addFigure1(t, e)
	// The paper's running query.
	results, err := e.TopK(2, []float64{30.5, 100.0}, "internet", "pool")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if !strings.Contains(results[0].Object.Text, "Hotel G") {
		t.Errorf("first = %q, want Hotel G", results[0].Object.Text)
	}
	if !strings.Contains(results[1].Object.Text, "Hotel B") {
		t.Errorf("second = %q, want Hotel B", results[1].Object.Text)
	}
	if math.Abs(results[0].Dist-181.92) > 0.05 {
		t.Errorf("dist = %g", results[0].Dist)
	}
}

func TestEngineIDsAndGet(t *testing.T) {
	e := newEngine(t, Config{})
	id0, err := e.Add([]float64{1, 2}, "first thing")
	if err != nil {
		t.Fatal(err)
	}
	id1, err := e.Add([]float64{3, 4}, "second thing")
	if err != nil {
		t.Fatal(err)
	}
	if id0 != 0 || id1 != 1 {
		t.Errorf("ids = %d, %d", id0, id1)
	}
	obj, err := e.Get(id1)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Text != "second thing" || obj.Point[0] != 3 {
		t.Errorf("Get = %+v", obj)
	}
	if _, err := e.Get(99); !errors.Is(err, ErrUnknownID) {
		t.Errorf("unknown id err = %v", err)
	}
}

func TestEngineDelete(t *testing.T) {
	e := newEngine(t, Config{})
	addFigure1(t, e)
	// Delete Hotel G (ID 6), the paper query's top answer.
	if err := e.Delete(6); err != nil {
		t.Fatal(err)
	}
	results, err := e.TopK(2, []float64{30.5, 100.0}, "internet", "pool")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !strings.Contains(results[0].Object.Text, "Hotel B") {
		t.Errorf("after delete: %+v", results)
	}
	if err := e.Delete(6); !errors.Is(err, ErrDeleted) {
		t.Errorf("double delete err = %v", err)
	}
	if err := e.Delete(99); !errors.Is(err, ErrUnknownID) {
		t.Errorf("unknown delete err = %v", err)
	}
	if _, err := e.Get(6); !errors.Is(err, ErrDeleted) {
		t.Errorf("get deleted err = %v", err)
	}
	if got := e.Stats().Objects; got != 7 {
		t.Errorf("live objects = %d", got)
	}
}

func TestEngineDimValidation(t *testing.T) {
	e := newEngine(t, Config{})
	if _, err := e.Add([]float64{1, 2, 3}, "x"); err == nil {
		t.Error("3-d point accepted by 2-d engine")
	}
	if _, err := e.TopK(1, []float64{1}, "x"); err == nil {
		t.Error("1-d query accepted")
	}
	if _, err := e.TopKRanked(1, []float64{1}, "x"); err == nil {
		t.Error("1-d ranked query accepted")
	}
}

func TestEngineRanked(t *testing.T) {
	e := newEngine(t, Config{})
	addFigure1(t, e)
	results, err := e.TopKRanked(5, []float64{30.5, 100.0}, "internet", "pool")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no ranked results")
	}
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score+1e-12 {
			t.Error("ranked scores not non-increasing")
		}
	}
	for _, r := range results {
		if r.IRScore <= 0 {
			t.Errorf("object %d has zero relevance", r.Object.ID)
		}
	}
	// Hotel D (pool only, close) should appear: disjunctive semantics.
	var seenD bool
	for _, r := range results {
		if strings.Contains(r.Object.Text, "Hotel D") {
			seenD = true
		}
	}
	if !seenD {
		t.Error("partially matching close object missing from ranked results")
	}
}

func TestEngineStatsAndQueryStats(t *testing.T) {
	e := newEngine(t, Config{SignatureBytes: 16})
	addFigure1(t, e)
	_, qs, err := e.TopKWithStats(2, []float64{30.5, 100.0}, "internet", "pool")
	if err != nil {
		t.Fatal(err)
	}
	if qs.NodesLoaded == 0 || qs.ObjectsLoaded == 0 || qs.BlocksRandom == 0 {
		t.Errorf("query stats empty: %+v", qs)
	}
	s := e.Stats()
	if s.Objects != 8 || s.TreeHeight < 1 || s.IndexMB <= 0 || s.ObjectFileMB <= 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.Vocabulary == 0 {
		t.Error("vocabulary not tracked")
	}
}

func TestEngineMatchesBruteForceRandomized(t *testing.T) {
	e := newEngine(t, Config{SignatureBytes: 8})
	rng := rand.New(rand.NewSource(61))
	vocab := []string{"coffee", "tea", "books", "vinyl", "ramen", "tacos", "bikes"}
	type rec struct {
		pt   []float64
		text string
	}
	var recs []rec
	for i := 0; i < 500; i++ {
		pt := []float64{rng.Float64() * 100, rng.Float64() * 100}
		n := 1 + rng.Intn(3)
		words := make([]string, n)
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		text := fmt.Sprintf("shop %d %s", i, strings.Join(words, " "))
		recs = append(recs, rec{pt, text})
		if _, err := e.Add(pt, text); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 10; trial++ {
		q := []float64{rng.Float64() * 100, rng.Float64() * 100}
		kw := vocab[rng.Intn(len(vocab))]
		got, err := e.TopK(7, q, kw)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force.
		type cand struct {
			id   int
			dist float64
		}
		var cands []cand
		for i, r := range recs {
			if !strings.Contains(r.text, kw) {
				continue
			}
			d := math.Hypot(r.pt[0]-q[0], r.pt[1]-q[1])
			cands = append(cands, cand{i, d})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].dist != cands[b].dist {
				return cands[a].dist < cands[b].dist
			}
			return cands[a].id < cands[b].id
		})
		if len(cands) > 7 {
			cands = cands[:7]
		}
		if len(got) != len(cands) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(cands))
		}
		for i := range got {
			if got[i].Object.ID != uint64(cands[i].id) {
				t.Fatalf("trial %d rank %d: %d, want %d", trial, i, got[i].Object.ID, cands[i].id)
			}
		}
	}
}

func TestEngineEmptyQueries(t *testing.T) {
	e := newEngine(t, Config{})
	res, err := e.TopK(5, []float64{0, 0}, "anything")
	if err != nil || len(res) != 0 {
		t.Errorf("empty engine: %v %v", res, err)
	}
	ranked, err := e.TopKRanked(5, []float64{0, 0}, "anything")
	if err != nil || len(ranked) != 0 {
		t.Errorf("empty engine ranked: %v %v", ranked, err)
	}
	s := e.Stats()
	if s.Objects != 0 {
		t.Errorf("stats = %+v", s)
	}
}
