package spatialkeyword

import "spatialkeyword/internal/obs"

// QueryMetrics is the per-query observability record delivered to a
// MetricsSink: one per finished query, the query's identity and outcome
// around its QueryStats work record. It is an alias of the internal obs type,
// so module-internal consumers (cmd/skserve, internal/shard) and external
// callers share one definition.
type QueryMetrics = obs.QueryMetrics

// MetricsSink receives one QueryMetrics per finished query. Install one
// with Engine.SetMetricsSink; implementations must be safe for concurrent
// use. obs.NewQueryRecorder provides a registry-backed implementation that
// renders Prometheus text and expvar-style JSON.
type MetricsSink = obs.Sink

// SetMetricsSink installs (or, with nil, removes) the engine's metrics
// sink. The sink is invoked once per query — when its stream is closed,
// which TopK, TopKRanked and TopKArea do themselves, drained or
// not — never per traversal step, so the hot path pays only plain counter
// increments it already paid before any sink existed. The record is
// delivered after the query has released the engine's lock.
func (e *Engine) SetMetricsSink(s MetricsSink) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sink = s
}
