package shard

import (
	"math/rand"
	"testing"

	"spatialkeyword/internal/geo"
)

func TestGridPartitionerLocateRange(t *testing.T) {
	bounds := geo.NewRect(geo.NewPoint(0, 0), geo.NewPoint(100, 100))
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		g, err := NewGridPartitioner(n, bounds)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		counts := make([]int, n)
		for i := 0; i < 2000; i++ {
			p := geo.NewPoint(rng.Float64()*100, rng.Float64()*100)
			sh := g.Locate(p)
			if sh < 0 || sh >= n {
				t.Fatalf("n=%d: Locate = %d", n, sh)
			}
			counts[sh]++
		}
		if n > 1 {
			for sh, c := range counts {
				if c == 0 {
					t.Errorf("n=%d: shard %d received no uniform points", n, sh)
				}
			}
		}
	}
}

func TestGridPartitionerClampsOutliers(t *testing.T) {
	g, err := NewGridPartitioner(4, geo.NewRect(geo.NewPoint(0, 0), geo.NewPoint(10, 10)))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []geo.Point{
		geo.NewPoint(-50, 5), geo.NewPoint(1e9, 1e9), geo.NewPoint(5, -3), geo.NewPoint(11, 12),
	} {
		if sh := g.Locate(p); sh < 0 || sh >= 4 {
			t.Errorf("Locate(%v) = %d", p, sh)
		}
	}
}

func TestHashPartitioner(t *testing.T) {
	h, err := NewHashPartitioner(5)
	if err != nil {
		t.Fatal(err)
	}
	p := geo.NewPoint(3.25, -7.5)
	if h.Locate(p) != h.Locate(geo.NewPoint(3.25, -7.5)) {
		t.Error("hash not deterministic")
	}
	if got := h.Locate(p); got < 0 || got >= 5 {
		t.Errorf("Locate = %d", got)
	}
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 5)
	for i := 0; i < 5000; i++ {
		counts[h.Locate(geo.NewPoint(rng.Float64(), rng.Float64()))]++
	}
	for sh, c := range counts {
		if c < 500 {
			t.Errorf("hash shard %d got %d of 5000 points — badly skewed", sh, c)
		}
	}
}

func TestPartitionerStateRoundtrip(t *testing.T) {
	g, _ := NewGridPartitioner(6, geo.NewRect(geo.NewPoint(-5, 0), geo.NewPoint(5, 10)))
	st, err := marshalPartitioner(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := unmarshalPartitioner(st)
	if err != nil {
		t.Fatal(err)
	}
	g2 := back.(*GridPartitioner)
	if g2.n != g.n || g2.gx != g.gx || g2.gy != g.gy || !g2.bounds.Equal(g.bounds) {
		t.Errorf("grid roundtrip: %+v vs %+v", g2, g)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := geo.NewPoint(rng.Float64()*30-15, rng.Float64()*30-15)
		if g.Locate(p) != g2.Locate(p) {
			t.Fatalf("roundtripped grid disagrees at %v", p)
		}
	}

	h, _ := NewHashPartitioner(3)
	st, err = marshalPartitioner(h)
	if err != nil {
		t.Fatal(err)
	}
	back, err = unmarshalPartitioner(st)
	if err != nil {
		t.Fatal(err)
	}
	if back.(*HashPartitioner).n != 3 {
		t.Errorf("hash roundtrip lost shard count")
	}
	if _, err := unmarshalPartitioner(partitionerState{Kind: "nope"}); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestPartitionerValidation(t *testing.T) {
	if _, err := NewGridPartitioner(0, geo.NewRect(geo.NewPoint(0), geo.NewPoint(1))); err == nil {
		t.Error("n=0 grid should fail")
	}
	if _, err := NewGridPartitioner(2, geo.Rect{}); err == nil {
		t.Error("empty bounds should fail")
	}
	if _, err := NewHashPartitioner(0); err == nil {
		t.Error("n=0 hash should fail")
	}
}
