package spatialkeyword

import (
	"fmt"
	"math"

	"spatialkeyword/internal/geo"
)

// CheckArea is the one validation of a caller-supplied query rectangle: both
// corners pass CheckPoint and lo does not exceed hi on any axis. Errors wrap
// ErrBadPoint.
func CheckArea(lo, hi []float64) error {
	if err := CheckPoint(lo); err != nil {
		return fmt.Errorf("area low corner: %w", err)
	}
	if err := CheckPoint(hi); err != nil {
		return fmt.Errorf("area high corner: %w", err)
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return fmt.Errorf("%w: inverted area on axis %d (%g > %g)", ErrBadPoint, i, lo[i], hi[i])
		}
	}
	return nil
}

// validateArea checks the corner points and returns the query rectangle.
func (e *Engine) validateArea(lo, hi []float64) (geo.Rect, error) {
	if err := CheckArea(lo, hi); err != nil {
		return geo.Rect{}, err
	}
	return geo.NewRect(geo.NewPoint(lo...), geo.NewPoint(hi...)), nil
}

// WithinArea returns every object inside the rectangle whose text contains
// all the keywords — the boolean range query ("all pizza places on this map
// view"), ordered by object ID: FirstK of SearchWithin, every result at
// distance zero, so its (distance, ID) order is ID order.
func (e *Engine) WithinArea(lo, hi []float64, keywords ...string) ([]Result, QueryStats, error) {
	it, err := e.SearchWithin(lo, hi, keywords...)
	if err != nil {
		return nil, QueryStats{}, err
	}
	out, err := FirstK(nil, it, math.MaxInt, nil)
	it.Close()
	return out, it.Stats(), err
}

// SearchWithin starts the range query's stream: the objects inside the
// rectangle containing every keyword, each at distance zero, with subtrees
// pruned by MBR as well as by signature. WithinArea is its FirstK; the shard
// merge pulls it per shard.
func (e *Engine) SearchWithin(lo, hi []float64, keywords ...string) (ResultStream, error) {
	area, err := e.validateArea(lo, hi)
	if err != nil {
		return nil, err
	}
	q, err := e.begin()
	if err != nil {
		return nil, err
	}
	return e.searchIter(q, e.tree.SearchWithin(area, keywords, &e.rows)), nil
}
