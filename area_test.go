package spatialkeyword

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// topKArea is an area top-k as SKQL's TOP … WITHIN asks for one: FirstK of
// SearchArea.
func topKArea(e *Engine, k int, lo, hi []float64, keywords ...string) ([]Result, error) {
	it, err := e.SearchArea(lo, hi, keywords...)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	return FirstK(nil, it, k, nil)
}

func TestEngineTopKArea(t *testing.T) {
	e := newEngine(t, Config{SignatureBytes: 16})
	addFigure1(t, e)
	// An area over East Asia: Hotels C (35.5, 139.4) and D (39.5, 116.2)
	// are inside; the nearest pool outside is elsewhere.
	results, err := topKArea(e, 3, []float64{30, 100}, []float64{45, 145}, "pool")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	// The two in-area hotels come first at distance zero.
	inArea := map[string]bool{}
	for _, r := range results[:2] {
		if r.Dist != 0 {
			t.Errorf("in-area hotel at dist %g", r.Dist)
		}
		inArea[firstWord(r.Object.Text, 2)] = true
	}
	if !inArea["Hotel C"] || !inArea["Hotel D"] {
		t.Errorf("in-area hotels = %v", inArea)
	}
	if results[2].Dist <= 0 {
		t.Error("third result should be outside the area")
	}
}

func TestEngineWithinArea(t *testing.T) {
	e := newEngine(t, Config{SignatureBytes: 16})
	addFigure1(t, e)
	results, _, err := e.WithinArea([]float64{30, 100}, []float64{45, 145}, "pool")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2 (Hotels C and D)", len(results))
	}
	// Deleting one shrinks the answer.
	if err := e.Delete(results[0].Object.ID); err != nil {
		t.Fatal(err)
	}
	results, _, err = e.WithinArea([]float64{30, 100}, []float64{45, 145}, "pool")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Errorf("after delete: %d results", len(results))
	}
	// Empty keyword list: everything in the area.
	all, _, err := e.WithinArea([]float64{-90, -180}, []float64{90, 180})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 7 {
		t.Errorf("world query: %d results, want 7 live hotels", len(all))
	}
}

func TestEngineAreaValidation(t *testing.T) {
	e := newEngine(t, Config{})
	if _, err := e.SearchArea([]float64{0}, []float64{1, 1}, "x"); !errors.Is(err, ErrBadPoint) {
		t.Errorf("bad lo dimension: err = %v, want ErrBadPoint", err)
	}
	if _, _, err := e.WithinArea([]float64{5, 5}, []float64{1, 1}, "x"); !errors.Is(err, ErrBadPoint) {
		t.Errorf("inverted area: err = %v, want ErrBadPoint", err)
	}
}

// TestBadPointRefusedAtEveryEntry: a point of the wrong dimensionality or
// with a NaN or infinite coordinate is ErrBadPoint at every public entry that
// takes one, and a refused Add leaves nothing behind.
func TestBadPointRefusedAtEveryEntry(t *testing.T) {
	e := newEngine(t, Config{})
	addFigure1(t, e)
	before := e.Stats().Objects
	good := []float64{1, 1}
	// closed releases a stream the engine should not have opened, so a
	// regression fails the assertion instead of wedging the next Add.
	closed := func(it interface{ Close() }, err error) error {
		if err == nil {
			it.Close()
		}
		return err
	}
	for name, bad := range map[string][]float64{
		"1-d":  {1},
		"3-d":  {1, 2, 3},
		"NaN":  {math.NaN(), 3},
		"+Inf": {3, math.Inf(1)},
		"-Inf": {math.Inf(-1), 3},
	} {
		entries := map[string]func() error{
			"Add":           func() error { _, err := e.Add(bad, "pool"); return err },
			"Search":        func() error { return closed(e.Search(bad, "pool")) },
			"TopK":          func() error { _, err := e.TopK(1, bad, "pool"); return err },
			"SearchArea/lo": func() error { return closed(e.SearchArea(bad, good, "pool")) },
			"SearchArea/hi": func() error { return closed(e.SearchArea(good, bad, "pool")) },
			"SearchRanked":  func() error { return closed(e.SearchRanked(bad, "pool")) },
			"TopKRanked":    func() error { _, err := e.TopKRanked(1, bad, "pool"); return err },
			"WithinArea/lo": func() error { _, _, err := e.WithinArea(bad, good, "pool"); return err },
			"WithinArea/hi": func() error { _, _, err := e.WithinArea(good, bad, "pool"); return err },
		}
		for entry, call := range entries {
			if err := call(); !errors.Is(err, ErrBadPoint) {
				t.Errorf("%s with a %s point: err = %v, want ErrBadPoint", entry, name, err)
			}
		}
	}
	if got := e.Stats().Objects; got != before {
		t.Errorf("refused adds changed the object count: %d -> %d", before, got)
	}
	if res, err := e.TopK(3, []float64{30.5, 100.0}, "pool"); err != nil || len(res) != 3 {
		t.Errorf("engine unusable after refused points: %d results, %v", len(res), err)
	}
}

func firstWord(s string, n int) string {
	f := strings.Fields(s)
	if len(f) > n {
		f = f[:n]
	}
	return strings.Join(f, " ")
}
