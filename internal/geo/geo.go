// Package geo provides the geometric primitives used throughout the library:
// multi-dimensional points, axis-aligned rectangles (minimum bounding
// rectangles, MBRs), and the distance measures required by R-Tree search.
//
// The paper's running examples are two-dimensional (latitude/longitude), but
// every structure in this package works for any dimension d >= 1, matching
// the paper's note that the method "can be applied to arbitrarily-shaped and
// multi-dimensional objects".
package geo

import (
	"fmt"
	"math"
	"strings"
)

// Dims is the dimensionality of every indexed point and every query: the
// paper's map locations (latitude, longitude). The types below work in any
// dimension; the R-Tree, the engine's point checks and the query surfaces
// fix it to Dims.
const Dims = 2

// Point is a location in d-dimensional space. The zero value is an empty
// (dimensionless) point, which is only valid as a placeholder.
type Point []float64

// NewPoint returns a point with the given coordinates.
func NewPoint(coords ...float64) Point {
	p := make(Point, len(coords))
	copy(p, coords)
	return p
}

// Dim returns the dimensionality of the point.
func (p Point) Dim() int { return len(p) }

// Equal reports whether p and q have identical dimension and coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Dist returns the Euclidean distance between p and q.
// It panics if the dimensions differ.
func (p Point) Dist(q Point) float64 {
	return math.Sqrt(p.Dist2(q))
}

// Dist2 returns the squared Euclidean distance between p and q.
// It panics if the dimensions differ.
func (p Point) Dist2(q Point) float64 {
	if len(p) != len(q) {
		//skvet:ignore nopanic documented invariant: mixed dimensions are a caller logic error
		panic(fmt.Sprintf("geo: dimension mismatch %d vs %d", len(p), len(q)))
	}
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// String formats the point as "[x1 x2 ...]" with compact coordinates.
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, c := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%g", c)
	}
	b.WriteByte(']')
	return b.String()
}

// Rect is an axis-aligned rectangle (an MBR) represented by its low ("south
// west") and high ("north east") corner points. A point is represented as a
// degenerate rectangle with Lo == Hi; this matches the R-Tree convention
// where every entry carries an MBR.
type Rect struct {
	Lo, Hi Point
}

// NewRect returns the rectangle spanning lo..hi. It panics if the corners
// have different dimensions or if any lo coordinate exceeds the matching hi
// coordinate.
func NewRect(lo, hi Point) Rect {
	if len(lo) != len(hi) {
		//skvet:ignore nopanic documented constructor invariant
		panic(fmt.Sprintf("geo: corner dimension mismatch %d vs %d", len(lo), len(hi)))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			//skvet:ignore nopanic documented constructor invariant
			panic(fmt.Sprintf("geo: inverted rectangle on axis %d: %g > %g", i, lo[i], hi[i]))
		}
	}
	return Rect{Lo: lo.Clone(), Hi: hi.Clone()}
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p Point) Rect {
	return Rect{Lo: p.Clone(), Hi: p.Clone()}
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Lo) }

// IsZero reports whether r is the zero-value rectangle (no corners).
func (r Rect) IsZero() bool { return len(r.Lo) == 0 && len(r.Hi) == 0 }

// Equal reports whether r and s cover exactly the same region.
func (r Rect) Equal(s Rect) bool {
	return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi)
}

// Clone returns an independent copy of r.
func (r Rect) Clone() Rect {
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	c := make(Point, len(r.Lo))
	for i := range r.Lo {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Area returns the d-dimensional volume of r (area in 2-d). A degenerate
// rectangle has area zero.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Union returns the smallest rectangle containing both r and s.
// If r is the zero rectangle, it returns s (and vice versa), so a running
// union can start from Rect{}.
func (r Rect) Union(s Rect) Rect {
	if r.IsZero() {
		return s.Clone()
	}
	if s.IsZero() {
		return r.Clone()
	}
	if len(r.Lo) != len(s.Lo) {
		//skvet:ignore nopanic documented invariant: mixed dimensions are a caller logic error
		panic(fmt.Sprintf("geo: union dimension mismatch %d vs %d", len(r.Lo), len(s.Lo)))
	}
	lo := make(Point, len(r.Lo))
	hi := make(Point, len(r.Hi))
	for i := range lo {
		lo[i] = math.Min(r.Lo[i], s.Lo[i])
		hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// Enlargement returns the increase in area needed for r to include s.
// This is the quantity Guttman's ChooseLeaf minimizes.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// Contains reports whether r fully contains s.
func (r Rect) Contains(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether p lies inside (or on the boundary of) r.
func (r Rect) ContainsPoint(p Point) bool {
	if len(p) != len(r.Lo) {
		return false
	}
	for i := range p {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if s.Hi[i] < r.Lo[i] || s.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// MinDist returns the minimum Euclidean distance from point p to rectangle r
// (zero if p is inside r). This is the Dist(p, MBR) function of the
// incremental nearest-neighbor algorithm (paper Figure 3): it lower-bounds
// the distance from p to any object contained in r, which is what makes the
// priority-queue traversal correct.
func (r Rect) MinDist(p Point) float64 {
	return math.Sqrt(r.MinDist2(p))
}

// MinDist2 returns the squared minimum distance from p to r.
func (r Rect) MinDist2(p Point) float64 {
	if len(p) != len(r.Lo) {
		//skvet:ignore nopanic documented invariant: mixed dimensions are a caller logic error
		panic(fmt.Sprintf("geo: mindist dimension mismatch %d vs %d", len(p), len(r.Lo)))
	}
	var s float64
	for i := range p {
		var d float64
		switch {
		case p[i] < r.Lo[i]:
			d = r.Lo[i] - p[i]
		case p[i] > r.Hi[i]:
			d = p[i] - r.Hi[i]
		}
		s += d * d
	}
	return s
}

// MinDistRect returns the minimum Euclidean distance between r and s —
// zero when they intersect. It lower-bounds the distance between any two
// points drawn from r and s respectively, which makes it the Dist(area,
// MBR) priority of area-based incremental NN queries.
func (r Rect) MinDistRect(s Rect) float64 {
	if len(r.Lo) != len(s.Lo) {
		//skvet:ignore nopanic documented invariant: mixed dimensions are a caller logic error
		panic(fmt.Sprintf("geo: rect mindist dimension mismatch %d vs %d", len(r.Lo), len(s.Lo)))
	}
	var sum float64
	for i := range r.Lo {
		var d float64
		switch {
		case s.Hi[i] < r.Lo[i]:
			d = r.Lo[i] - s.Hi[i]
		case s.Lo[i] > r.Hi[i]:
			d = s.Lo[i] - r.Hi[i]
		}
		sum += d * d
	}
	return math.Sqrt(sum)
}

// String formats the rectangle as "lo..hi".
func (r Rect) String() string {
	return r.Lo.String() + ".." + r.Hi.String()
}
