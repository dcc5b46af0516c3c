// Package obs is the query-level observability layer: lock-free counters,
// gauges, and fixed-bucket histograms, the work record every layer counts a
// query's work in (Work) and the per-query metrics record around it
// (QueryMetrics), a registry that renders Prometheus text exposition and
// expvar-style JSON, and a structured slow-query log.
//
// The paper's whole evaluation (Section 6) is built on counting I/O —
// random vs. sequential page accesses per query — and this package makes
// those same signals, plus latency and signature pruning effectiveness,
// visible for live traffic: the engine populates one QueryMetrics per
// query from the traversal counters it already keeps (rtree trace
// counters, storage.Meter brackets) and hands it to a Sink exactly once,
// off the per-entry hot path. Every primitive uses atomic operations only;
// nothing here takes a mutex on the metric-update path.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use. All methods are safe for concurrent use and lock-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready to
// use. All methods are safe for concurrent use and lock-free.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a gauge holding a float64 (seconds of lag, ratios, ...).
// The zero value is ready to use. All methods are safe for concurrent use
// and lock-free (the value is stored as float bits in a uint64).
type FloatGauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: observations are counted into the
// first bucket whose upper bound is >= the value, with an implicit +Inf
// bucket after the last bound. Bounds are fixed at construction, so
// Observe is a binary search plus two atomic adds — no locking, no
// allocation. The zero value is not usable; construct with NewHistogram.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram with the given strictly increasing
// bucket upper bounds. It panics on empty or non-increasing bounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		//skvet:ignore nopanic documented constructor invariant
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			//skvet:ignore nopanic documented constructor invariant
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram, in a shape
// that marshals directly to JSON (the skbench -json artifacts embed it).
// Counts are per-bucket (not cumulative); Counts has one more entry than
// Bounds, the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram's current state. Concurrent Observes may
// or may not be included; each bucket value is individually consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// ExpBuckets returns n strictly increasing bounds starting at start and
// growing by factor: start, start*factor, start*factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		//skvet:ignore nopanic documented constructor invariant
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets are default bounds for query wall latency in seconds:
// 100 µs up to ~13 s, doubling.
func LatencyBuckets() []float64 { return ExpBuckets(100e-6, 2, 18) }

// BlockBuckets are default bounds for per-query disk block counts:
// 1 up to 32768, doubling.
func BlockBuckets() []float64 { return ExpBuckets(1, 2, 16) }
