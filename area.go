package spatialkeyword

import (
	"fmt"

	"spatialkeyword/internal/geo"
)

// CheckArea is the one validation of a caller-supplied query rectangle: both
// corners pass CheckPoint and lo does not exceed hi on any axis. Errors wrap
// ErrBadPoint.
func CheckArea(lo, hi []float64, dim int) error {
	if err := CheckPoint(lo, dim); err != nil {
		return fmt.Errorf("area low corner: %w", err)
	}
	if err := CheckPoint(hi, dim); err != nil {
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
	if err := CheckArea(lo, hi, e.dim); err != nil {
		return geo.Rect{}, err
	}
	return geo.NewRect(geo.NewPoint(lo...), geo.NewPoint(hi...)), nil
}

// WithinArea returns every object inside the rectangle whose text contains
// all the keywords — the boolean range query ("all pizza places on this map
// view"), ordered by object ID.
func (e *Engine) WithinArea(lo, hi []float64, keywords ...string) ([]Result, error) {
	area, err := e.validateArea(lo, hi)
	if err != nil {
		return nil, err
	}
	if err := e.rlock(); err != nil {
		return nil, err
	}
	defer e.mu.RUnlock()
	results, _, err := e.tree.WithinArea(area, keywords)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(results))
	for _, r := range results {
		if e.deleted[uint64(r.Object.ID)] {
			continue
		}
		out = append(out, Result{Object: publicObject(r.Object)})
	}
	return out, nil
}
