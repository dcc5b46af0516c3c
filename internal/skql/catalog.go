package skql

import (
	"fmt"
	"sync"

	"spatialkeyword"
	"spatialkeyword/internal/invindex"
	"spatialkeyword/internal/storage"
)

// Target is the read surface a plan executes against: the backend read
// contract the root package declares, under the name this package has
// always used for it.
type Target = spatialkeyword.Reader

// Catalog binds a Target to the planner and owns a lazily filled,
// incrementally maintained sidecar inverted index that serves the IIO
// physical path. Query terms, residual filters and the index's terms all
// pass through the text pipeline the target's corpus was normalised with
// (Target.Corpus().Analyzer), so every physical path sees the terms the
// engine indexed.
//
// A Catalog is safe for concurrent queries; index refreshes are
// serialized internally, and queries running beside one read whole
// documents only.
type Catalog struct {
	t Target

	// The sidecar inverted index: posting lists only, filled and kept
	// current the one way, by appending the rows not yet indexed with the
	// terms the target's row table holds for them (Target.Rows) — object IDs
	// are append-only, so rows [invMark, NumObjects) are exactly the
	// unindexed ones, and a first fill is a catch-up from mark 0. Every
	// other fact of a row — its point, whether it is live — is the row
	// table's too: deleted objects are passed over by the fill, filtered at
	// execution time, and dropped when the tail is folded. mu serializes
	// refreshes; readers go through the index's own lock.
	mu      sync.Mutex
	inv     *invindex.Index
	invDev  *storage.Disk
	invMark int
	stats   IndexStats
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
	// RowsIndexed is how many rows were added to the index.
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
	_, err := c.index()
	return err
}

// index returns the sidecar inverted index, current as of the target's
// object count on entry. A query that raced an add catches up on its next
// call.
func (c *Catalog) index() (*invindex.Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.t.NumObjects()
	if c.inv != nil && n == c.invMark {
		return c.inv, nil
	}
	c.stats.Refreshes++
	if c.inv == nil || n < c.invMark {
		// First use, or the ID space moved backwards (a different engine
		// stands behind the target now, so no posted ID can be trusted):
		// the fill starts over from an empty index.
		c.reset()
	}
	if err := c.catchUp(n); err != nil {
		return nil, fmt.Errorf("skql: refresh sidecar index: %w", err)
	}
	return c.inv, nil
}

// reset replaces the index with an empty, built one at mark 0, so the next
// catch-up fills it from row 0. An empty Build allocates no blocks, and the
// first fold onto the fresh device writes what a one-shot Build would.
func (c *Catalog) reset() {
	dev := storage.NewDisk(4096)
	ix := invindex.New(dev)
	_ = ix.Build() // nothing to encode: it cannot fail
	c.inv, c.invDev, c.invMark = ix, dev, 0
	c.stats.FullBuilds++
}

// catchUp appends rows [invMark, n) to the index, one Rows call each, with
// the terms the target's row table holds for the row: no row is read or
// analyzed. Rows that are not live are passed over for good (the executor
// filters them anyway); a failure stops the pass with the mark at the
// failing row, so the next use retries it and a transient fault never
// leaves a hole.
func (c *Catalog) catchUp(n int) error {
	id := []uint64{0}
	terms := make([]string, 0, 32)
	var err error
	add := func(_ int, _ []float64, ts []string) {
		if terms, err = ts, c.inv.Append(id[0], ts); err == nil {
			c.stats.RowsIndexed++
		}
	}
	for ; c.invMark < n; c.invMark++ {
		id[0] = uint64(c.invMark)
		if rerr := c.t.Rows(id, terms, add); rerr != nil {
			return rerr
		}
		if err != nil {
			return err
		}
	}
	tail, base := c.inv.PostingCounts()
	if tail == 0 || tail*foldDivisor < base {
		return nil
	}
	ids := make([]uint64, c.invMark)
	for i := range ids {
		ids[i] = uint64(i)
	}
	alive := make([]bool, c.invMark)
	if err := c.t.Rows(ids, nil, func(i int, _ []float64, _ []string) { alive[i] = true }); err != nil {
		return err
	}
	if err := c.inv.Fold(func(ref uint64) bool { return ref < uint64(len(alive)) && !alive[ref] }); err != nil {
		return err
	}
	c.stats.Folds++
	return nil
}
