package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", NewPoint(1, 2), NewPoint(1, 2), 0},
		{"unit x", NewPoint(0, 0), NewPoint(1, 0), 1},
		{"3-4-5", NewPoint(0, 0), NewPoint(3, 4), 5},
		{"negative coords", NewPoint(-1, -1), NewPoint(2, 3), 5},
		{"1-d", NewPoint(2), NewPoint(7), 5},
		{"3-d", NewPoint(0, 0, 0), NewPoint(1, 2, 2), 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist(%v, %v) = %g, want %g", tt.p, tt.q, got, tt.want)
			}
			if got := tt.q.Dist(tt.p); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist not symmetric: %g vs %g", got, tt.want)
			}
		})
	}
}

func TestPointDistDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	NewPoint(1, 2).Dist(NewPoint(1, 2, 3))
}

func TestPointEqualAndClone(t *testing.T) {
	p := NewPoint(1, 2, 3)
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal to original")
	}
	q[0] = 99
	if p.Equal(q) {
		t.Fatal("clone aliases original storage")
	}
	if p.Equal(NewPoint(1, 2)) {
		t.Fatal("points of different dimension reported equal")
	}
}

func TestNewRectValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inverted rectangle")
		}
	}()
	NewRect(NewPoint(1, 5), NewPoint(2, 4))
}

func TestRectArea(t *testing.T) {
	tests := []struct {
		name string
		r    Rect
		want float64
	}{
		{"unit square", NewRect(NewPoint(0, 0), NewPoint(1, 1)), 1},
		{"rectangle", NewRect(NewPoint(-1, -2), NewPoint(3, 2)), 16},
		{"degenerate point", PointRect(NewPoint(5, 5)), 0},
		{"degenerate line", NewRect(NewPoint(0, 0), NewPoint(4, 0)), 0},
		{"3-d box", NewRect(NewPoint(0, 0, 0), NewPoint(2, 3, 4)), 24},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.r.Area(); got != tt.want {
				t.Errorf("Area() = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestRectUnion(t *testing.T) {
	a := NewRect(NewPoint(0, 0), NewPoint(2, 2))
	b := NewRect(NewPoint(1, -1), NewPoint(3, 1))
	u := a.Union(b)
	want := NewRect(NewPoint(0, -1), NewPoint(3, 2))
	if !u.Equal(want) {
		t.Errorf("Union = %v, want %v", u, want)
	}
	if !a.Union(Rect{}).Equal(a) || !(Rect{}).Union(a).Equal(a) {
		t.Error("union with zero rect should be identity")
	}
}

func TestRectEnlargement(t *testing.T) {
	a := NewRect(NewPoint(0, 0), NewPoint(2, 2))
	inside := PointRect(NewPoint(1, 1))
	if got := a.Enlargement(inside); got != 0 {
		t.Errorf("enlargement for contained rect = %g, want 0", got)
	}
	outside := PointRect(NewPoint(4, 2))
	// union is [0,0]..[4,2], area 8, minus original 4 = 4.
	if got := a.Enlargement(outside); got != 4 {
		t.Errorf("enlargement = %g, want 4", got)
	}
}

func TestRectContainsAndIntersects(t *testing.T) {
	a := NewRect(NewPoint(0, 0), NewPoint(10, 10))
	tests := []struct {
		name               string
		s                  Rect
		contains, overlaps bool
	}{
		{"inside", NewRect(NewPoint(2, 2), NewPoint(5, 5)), true, true},
		{"equal", a.Clone(), true, true},
		{"partial overlap", NewRect(NewPoint(5, 5), NewPoint(15, 15)), false, true},
		{"touching edge", NewRect(NewPoint(10, 0), NewPoint(12, 5)), false, true},
		{"disjoint", NewRect(NewPoint(11, 11), NewPoint(12, 12)), false, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := a.Contains(tt.s); got != tt.contains {
				t.Errorf("Contains = %v, want %v", got, tt.contains)
			}
			if got := a.Intersects(tt.s); got != tt.overlaps {
				t.Errorf("Intersects = %v, want %v", got, tt.overlaps)
			}
			if got := tt.s.Intersects(a); got != tt.overlaps {
				t.Errorf("Intersects not symmetric")
			}
		})
	}
}

func TestRectMinDist(t *testing.T) {
	r := NewRect(NewPoint(1, 1), NewPoint(3, 3))
	tests := []struct {
		name string
		p    Point
		want float64
	}{
		{"inside", NewPoint(2, 2), 0},
		{"on boundary", NewPoint(1, 2), 0},
		{"left", NewPoint(0, 2), 1},
		{"above", NewPoint(2, 5), 2},
		{"corner 3-4-5", NewPoint(-2, -3), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.MinDist(tt.p); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("MinDist(%v) = %g, want %g", tt.p, got, tt.want)
			}
		})
	}
}

func TestRectCenter(t *testing.T) {
	r := NewRect(NewPoint(0, 2), NewPoint(4, 8))
	if c := r.Center(); !c.Equal(NewPoint(2, 5)) {
		t.Errorf("Center = %v", c)
	}
}

// randRect builds a valid random rectangle from four unconstrained floats.
func randRect(x1, y1, x2, y2 float64) Rect {
	return NewRect(
		NewPoint(math.Min(x1, x2), math.Min(y1, y2)),
		NewPoint(math.Max(x1, x2), math.Max(y1, y2)),
	)
}

func clampf(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestQuickUnionContainsBoth(t *testing.T) {
	f := func(a1, a2, a3, a4, b1, b2, b3, b4 float64) bool {
		r := randRect(clampf(a1), clampf(a2), clampf(a3), clampf(a4))
		s := randRect(clampf(b1), clampf(b2), clampf(b3), clampf(b4))
		u := r.Union(s)
		return u.Contains(r) && u.Contains(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMinDistLowerBoundsContainedPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		r := randRect(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		q := NewPoint(rng.Float64()*200-50, rng.Float64()*200-50)
		// A random point inside r must be at least MinDist away from q.
		in := NewPoint(
			r.Lo[0]+rng.Float64()*(r.Hi[0]-r.Lo[0]),
			r.Lo[1]+rng.Float64()*(r.Hi[1]-r.Lo[1]),
		)
		if d, min := q.Dist(in), r.MinDist(q); d < min-1e-9 {
			t.Fatalf("point %v in %v closer (%g) to %v than MinDist %g", in, r, d, q, min)
		}
	}
}

func TestQuickEnlargementNonNegative(t *testing.T) {
	f := func(a1, a2, a3, a4, b1, b2, b3, b4 float64) bool {
		r := randRect(clampf(a1), clampf(a2), clampf(a3), clampf(a4))
		s := randRect(clampf(b1), clampf(b2), clampf(b3), clampf(b4))
		return r.Enlargement(s) >= -1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickContainmentImpliesZeroMinDist(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		r := randRect(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		p := NewPoint(rng.Float64()*20-5, rng.Float64()*20-5)
		if r.ContainsPoint(p) != (r.MinDist(p) == 0) {
			t.Fatalf("containment/mindist mismatch for %v in %v", p, r)
		}
	}
}

func TestPointString(t *testing.T) {
	if s := NewPoint(30.5, 100).String(); s != "[30.5 100]" {
		t.Errorf("String() = %q", s)
	}
	r := NewRect(NewPoint(0, 0), NewPoint(1, 2))
	if s := r.String(); s != "[0 0]..[1 2]" {
		t.Errorf("Rect.String() = %q", s)
	}
}
