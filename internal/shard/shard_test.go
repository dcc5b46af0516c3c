package shard

import (
	"errors"
	"math"
	"strings"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/geo"
)

func newTestEngine(t *testing.T, shards int) *ShardedEngine {
	t.Helper()
	s, err := New(spatialkeyword.Config{SignatureBytes: 16}, Options{
		Shards: shards,
		Bounds: geo.NewRect(geo.NewPoint(0, 0), geo.NewPoint(100, 100)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestShardedLifecycle(t *testing.T) {
	s := newTestEngine(t, 4)
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	rows := []struct {
		pt   []float64
		text string
	}{
		{[]float64{10, 10}, "cuban cafe espresso pastelitos"},
		{[]float64{90, 90}, "beach bar cocktails live music"},
		{[]float64{12, 88}, "espresso bar wifi"},
		{[]float64{88, 12}, "tapas cafe espresso patio"},
	}
	for i, r := range rows {
		id, err := s.Add(r.pt, r.text)
		if err != nil {
			t.Fatal(err)
		}
		if id != uint64(i) {
			t.Fatalf("row %d got id %d: global ids must be insertion-ordered", i, id)
		}
	}

	// Objects landed on different shards (the corners of a 2×2 grid).
	st := s.Stats()
	if st.Objects != 4 {
		t.Errorf("Stats.Objects = %d", st.Objects)
	}
	perShard := s.ShardStats()
	if len(perShard) != 4 {
		t.Fatalf("ShardStats len = %d", len(perShard))
	}
	spread := 0
	for _, ss := range perShard {
		if ss.Objects > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Errorf("objects on %d shards, want spread across at least 2", spread)
	}

	// Get translates IDs back.
	obj, err := s.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	if obj.ID != 2 || !strings.Contains(obj.Text, "wifi") {
		t.Errorf("Get(2) = %+v", obj)
	}

	// TopK across shards.
	res, err := s.TopK(3, []float64{11, 11}, "espresso")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("TopK = %d results", len(res))
	}
	if res[0].Object.ID != 0 {
		t.Errorf("nearest espresso = id %d, want 0", res[0].Object.ID)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Errorf("results out of order: %v then %v", res[i-1].Dist, res[i].Dist)
		}
	}

	// Delete and error mapping carry global IDs.
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(0); !errors.Is(err, spatialkeyword.ErrDeleted) || !strings.Contains(err.Error(), "0") {
		t.Errorf("double delete = %v", err)
	}
	if _, err := s.Get(0); !errors.Is(err, spatialkeyword.ErrDeleted) {
		t.Errorf("Get(deleted) = %v", err)
	}
	if _, err := s.Get(99); !errors.Is(err, spatialkeyword.ErrUnknownID) {
		t.Errorf("Get(99) = %v", err)
	}
	if err := s.Delete(99); !errors.Is(err, spatialkeyword.ErrUnknownID) {
		t.Errorf("Delete(99) = %v", err)
	}

	res, err = s.TopK(5, []float64{11, 11}, "espresso")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Object.ID == 0 {
			t.Error("deleted object returned")
		}
	}
	if s.Stats().Objects != 3 {
		t.Errorf("Objects after delete = %d", s.Stats().Objects)
	}
}

func TestShardedQueryStats(t *testing.T) {
	s := newTestEngine(t, 3)
	for i := 0; i < 60; i++ {
		pt := []float64{float64(i%10) * 10, float64(i/10) * 15}
		if _, err := s.Add(pt, "store coffee beans roaster"); err != nil {
			t.Fatal(err)
		}
	}
	res, qs, err := s.TopKWithStats(5, []float64{50, 50}, "coffee")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("results = %d", len(res))
	}
	if qs.NodesLoaded == 0 || qs.ObjectsLoaded < 5 {
		t.Errorf("stats not aggregated: %+v", qs)
	}
	if qs.BlocksRandom+qs.BlocksSequential == 0 {
		t.Errorf("no I/O accounted: %+v", qs)
	}
}

func TestShardedEmptyAndSmallK(t *testing.T) {
	s := newTestEngine(t, 2)
	res, err := s.TopK(5, []float64{1, 1}, "nothing")
	if err != nil || len(res) != 0 {
		t.Errorf("empty engine TopK = %v, %v", res, err)
	}
	if res, err := s.TopKRanked(0, []float64{1, 1}, "x"); err != nil || res != nil {
		t.Errorf("k=0 ranked = %v, %v", res, err)
	}
	if _, err := s.Add([]float64{5, 5}, "solo espresso"); err != nil {
		t.Fatal(err)
	}
	res, err = s.TopK(10, []float64{0, 0}, "espresso")
	if err != nil || len(res) != 1 {
		t.Errorf("TopK = %v, %v", res, err)
	}
	if res, err := s.TopKRanked(math.MaxInt, []float64{0, 0}, "espresso"); err != nil || len(res) != 1 {
		t.Errorf("k=MaxInt ranked = %v, %v", res, err)
	}
	if err := s.Flush(); err != nil {
		t.Errorf("Flush = %v", err)
	}
	if err := s.Save(); !errors.Is(err, spatialkeyword.ErrNotDurable) {
		t.Errorf("Save on memory engine = %v", err)
	}
}

func TestShardedWithinAreaRouting(t *testing.T) {
	s := newTestEngine(t, 4)
	var want []uint64
	for x := 5; x < 100; x += 10 {
		for y := 5; y < 100; y += 10 {
			id, err := s.Add([]float64{float64(x), float64(y)}, "pizza slice oven")
			if err != nil {
				t.Fatal(err)
			}
			if x < 50 && y < 50 {
				want = append(want, id)
			}
		}
	}
	res, err := s.WithinArea([]float64{0, 0}, []float64{49, 49}, "pizza")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(want) {
		t.Fatalf("WithinArea = %d results, want %d", len(res), len(want))
	}
	for i, r := range res {
		if i > 0 && res[i-1].Object.ID >= r.Object.ID {
			t.Fatal("range results not ordered by global ID")
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(spatialkeyword.Config{}, Options{Shards: -1}); err == nil {
		t.Error("negative shards should fail")
	}
	if _, err := New(spatialkeyword.Config{}, Options{Shards: 2, Bounds: geo.Rect{Lo: geo.Point{1, 1}, Hi: geo.Point{0, 0}}}); err == nil {
		t.Error("inverted bounds should fail")
	}
	// Default shards (0) means one shard, hash partitioned.
	s, err := New(spatialkeyword.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 1 {
		t.Errorf("default NumShards = %d", s.NumShards())
	}
	if _, ok := s.part.(*HashPartitioner); !ok {
		t.Errorf("default partitioner = %T, want hash", s.part)
	}
}

// TestBadPointRefusedAtEveryEntry: the sharded engine refuses a point of the
// wrong dimensionality or with a NaN or infinite coordinate with ErrBadPoint
// at every entry that takes one — before the partitioner indexes it, and
// whatever k is — under both partitioners, and a refused Add reserves no
// global ID.
func TestBadPointRefusedAtEveryEntry(t *testing.T) {
	for pname, opts := range map[string]Options{
		"grid": {Shards: 4, Bounds: geo.NewRect(geo.NewPoint(0, 0), geo.NewPoint(100, 100))},
		"hash": {Shards: 3},
	} {
		s, err := New(spatialkeyword.Config{SignatureBytes: 16}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range [][]float64{{10, 10}, {90, 20}, {20, 90}, {80, 80}} {
			if _, err := s.Add(pt, "pool spa"); err != nil {
				t.Fatal(err)
			}
		}
		good := []float64{1, 1}
		// closed releases a stream the engine should not have opened, so a
		// regression fails the assertion instead of wedging the next Add.
		closed := func(it spatialkeyword.ResultStream, err error) error {
			if err == nil {
				it.Close()
			}
			return err
		}
		for name, bad := range map[string][]float64{
			"0-d":  {},
			"3-d":  {1, 2, 3},
			"NaN":  {math.NaN(), 3},
			"+Inf": {3, math.Inf(1)},
			"-Inf": {math.Inf(-1), 3},
		} {
			entries := map[string]func() error{
				"Add":            func() error { _, err := s.Add(bad, "pool"); return err },
				"TopK":           func() error { _, err := s.TopK(1, bad, "pool"); return err },
				"TopK/k=0":       func() error { _, err := s.TopK(0, bad, "pool"); return err },
				"SearchArea/lo":  func() error { return closed(s.SearchArea(bad, good, "pool")) },
				"SearchArea/hi":  func() error { return closed(s.SearchArea(good, bad, "pool")) },
				"TopKRanked":     func() error { _, err := s.TopKRanked(1, bad, "pool"); return err },
				"TopKRanked/k=0": func() error { _, err := s.TopKRanked(0, bad, "pool"); return err },
				"WithinArea/lo":  func() error { _, err := s.WithinArea(bad, good, "pool"); return err },
				"WithinArea/hi":  func() error { _, err := s.WithinArea(good, bad, "pool"); return err },
			}
			for entry, call := range entries {
				if err := call(); !errors.Is(err, spatialkeyword.ErrBadPoint) {
					t.Errorf("%s: %s with a %s point: err = %v, want ErrBadPoint", pname, entry, name, err)
				}
			}
		}
		if _, err := s.WithinArea([]float64{5, 5}, good, "pool"); !errors.Is(err, spatialkeyword.ErrBadPoint) {
			t.Errorf("%s: WithinArea on an inverted area: err = %v, want ErrBadPoint", pname, err)
		}
		if err := closed(s.SearchArea([]float64{5, 5}, good, "pool")); !errors.Is(err, spatialkeyword.ErrBadPoint) {
			t.Errorf("%s: SearchArea on an inverted area: err = %v, want ErrBadPoint", pname, err)
		}
		if got := s.NumObjects(); got != 4 {
			t.Errorf("%s: refused adds moved NumObjects to %d", pname, got)
		}
		for i, h := range s.Health() {
			if !h.Healthy {
				t.Errorf("%s: a bad point took shard %d out of rotation: %+v", pname, i, h)
			}
		}
		if res, err := s.TopK(4, []float64{50, 50}, "pool"); err != nil || len(res) != 4 {
			t.Errorf("%s: engine unusable after refused points: %d results, %v", pname, len(res), err)
		}
	}
}
