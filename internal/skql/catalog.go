package skql

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"spatialkeyword"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/invindex"
	"spatialkeyword/internal/storage"
)

// Target is the read surface a plan executes against: the backend read
// contract the root package declares, under the name this package has
// always used for it.
type Target = spatialkeyword.Reader

// Catalog binds a Target to the planner and owns a lazily filled,
// incrementally maintained sidecar inverted index that serves the IIO
// physical path. Query terms, residual filters and the index's tokens
// all pass through the text pipeline the target's corpus was normalised
// with (Target.Corpus().Analyzer), so every physical path sees the
// terms the engine indexed.
//
// A Catalog is safe for concurrent queries; index refreshes are
// serialized internally, and queries running beside one read whole
// documents only.
type Catalog struct {
	t Target

	// The sidecar inverted index: filled and kept current the one way,
	// by reading only the rows not yet indexed, one Get each — object IDs
	// are append-only, so rows [invMark, NumObjects) are exactly the
	// unindexed ones, and a first fill is a catch-up from mark 0. Deleted
	// objects are passed over by the fill, filtered at execution time via
	// IsDeleted, and dropped when the tail is folded. mu serializes
	// refreshes; readers go through the index's own lock.
	mu      sync.Mutex
	inv     *invindex.Index
	invDev  *storage.Disk
	invMark int
	// pts is the point column beside the index: every indexed row's
	// location, filled by the same Gets and reset with it.
	pts   pointColumn
	stats IndexStats
}

// pointColumn holds each indexed row's location, geo.Dims float64s per
// object ID, so the IIO path can order and rect-filter candidates before it
// reads any row. A row with no entry — never stored, deleted before it was
// indexed, or past the column's end — reads as absent. The column only
// grows: a reader holding an older copy of the header reads entries no
// writer touches again.
type pointColumn struct {
	xs []float64
}

// put records row id's point. Rows come in increasing ID order (the
// catch-up's); the IDs skipped hold NaN, and a row out of order is left
// without an entry. rows presizes the column on its first entry.
func (pc *pointColumn) put(id uint64, p []float64, rows int) {
	if pc.xs == nil {
		pc.xs = make([]float64, 0, rows*geo.Dims)
	}
	if id < uint64(len(pc.xs)/geo.Dims) {
		return
	}
	for uint64(len(pc.xs)) < id*geo.Dims {
		pc.xs = append(pc.xs, math.NaN())
	}
	pc.xs = append(pc.xs, p...)
}

// at returns row id's point, or false when the column has no entry for it.
func (pc pointColumn) at(id uint64) ([]float64, bool) {
	if id >= uint64(len(pc.xs)/geo.Dims) {
		return nil, false
	}
	p := pc.xs[id*geo.Dims : (id+1)*geo.Dims]
	if math.IsNaN(p[0]) {
		return nil, false
	}
	return p, true
}

// foldDivisor sets when the index's in-memory tail is folded into its
// on-device lists: once it holds 1/foldDivisor as many postings as they
// do. A fold re-encodes every list, so a fixed fraction makes the cost
// per added row constant (amortised) at any corpus size.
const foldDivisor = 8

// IndexStats counts the sidecar index's maintenance work since the
// catalog was created.
type IndexStats struct {
	// FullBuilds is how many fills started from empty: one on first
	// use, another only if the target's ID space shrank (a follower that
	// re-bootstrapped). A fill that fails resumes at the unread row and
	// is not counted again.
	FullBuilds uint64
	// Folds is how many times the tail was folded on-device.
	Folds uint64
	// RowsIndexed is how many rows were tokenised into the index.
	RowsIndexed uint64
	// Refreshes is how many index uses found the target changed and
	// did any of the above.
	Refreshes uint64
}

// NewCatalog returns a Catalog over the target.
func NewCatalog(t Target) *Catalog {
	return &Catalog{t: t}
}

// IndexStats returns the sidecar index's maintenance counters.
func (c *Catalog) IndexStats() IndexStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// EnsureIndex brings the sidecar inverted index current now instead of
// on the next IIO execution (the first call fills it from row 0, later
// calls catch up on new rows), so benchmarks can meter query I/O without
// the maintenance cost.
func (c *Catalog) EnsureIndex() error {
	_, _, err := c.index()
	return err
}

// index returns the sidecar inverted index and its point column, current
// as of the target's object count on entry. A query that raced an add
// catches up on its next call.
func (c *Catalog) index() (*invindex.Index, pointColumn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.t.NumObjects()
	if c.inv != nil && n == c.invMark {
		return c.inv, c.pts, nil
	}
	c.stats.Refreshes++
	if c.inv == nil || n < c.invMark {
		// First use, or the ID space moved backwards (a different engine
		// stands behind the target now, so no posted ID or point can be
		// trusted): the fill starts over from an empty index.
		c.reset()
	}
	if err := c.catchUp(n); err != nil {
		return nil, pointColumn{}, fmt.Errorf("skql: refresh sidecar index: %w", err)
	}
	return c.inv, c.pts, nil
}

// reset replaces the index with an empty, built one at mark 0, so the next
// catch-up fills it from row 0. An empty Build allocates no blocks, and the
// first fold onto the fresh device writes what a one-shot Build would.
func (c *Catalog) reset() {
	dev := storage.NewDisk(4096)
	ix := invindex.New(dev)
	_ = ix.Build() // nothing to encode: it cannot fail
	c.inv, c.invDev, c.invMark, c.pts = ix, dev, 0, pointColumn{}
	c.stats.FullBuilds++
}

// catchUp appends rows [invMark, n) to the index, one Get each. Rows
// that are deleted or were never assigned are passed over for good (the
// executor filters them anyway); any other failure stops the pass with
// the mark at the unread row, so the next use retries it and a
// transient fault never leaves a hole.
func (c *Catalog) catchUp(n int) error {
	an := c.t.Corpus().Analyzer
	for c.invMark < n {
		o, err := c.t.Get(uint64(c.invMark))
		switch {
		case err == nil:
			if err := c.inv.Append(uint64(c.invMark), an.Unique(o.Text)); err != nil {
				return err
			}
			c.pts.put(uint64(c.invMark), o.Point, n)
			c.stats.RowsIndexed++
		case errors.Is(err, spatialkeyword.ErrDeleted), errors.Is(err, spatialkeyword.ErrUnknownID):
		default:
			return err
		}
		c.invMark++
	}
	tail, base := c.inv.PostingCounts()
	if tail == 0 || tail*foldDivisor < base {
		return nil
	}
	dead := make([]bool, c.invMark)
	for id := range dead {
		dead[id] = c.t.IsDeleted(uint64(id))
	}
	err := c.inv.Fold(func(ref uint64) bool { return ref < uint64(len(dead)) && dead[ref] })
	if err != nil {
		return err
	}
	c.stats.Folds++
	return nil
}
