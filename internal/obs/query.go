package obs

import "time"

// Work is what one query did, counted the way the paper's evaluation counts
// it (Section 6, Figures 9-12): node accesses, object accesses and disk
// blocks, plus how well the signatures pruned. It is the one declaration of
// these counters. The traversal fills the first six (core.SearchStats is
// this type), the engine's query bracket adds the two block counts, a sharded
// merge sums its shards' records with Add, and the struct travels whole from
// there to the HTTP response, the sink and EXPLAIN ANALYZE.
type Work struct {
	// NodesLoaded is the number of index nodes dequeued and read.
	NodesLoaded int
	// ObjectsLoaded is the number of rows read from the object file. An
	// engine's streams test and score candidates in its in-memory row table
	// and read a row only to return it; the paper's algorithms, which have
	// no such table, read every candidate.
	ObjectsLoaded int
	// FalsePositives counts candidates whose signature matched the query
	// but that lack a keyword (IR2TopK line 21 failing; for the ranked
	// query, an object that holds none), whether the row table caught them
	// in memory or the loaded row did; pruned entries are never verified,
	// so EntriesPruned is their upper-bound complement.
	FalsePositives int
	// EntriesPruned is the number of index entries the signature check
	// dropped — subtrees and objects never visited.
	EntriesPruned int
	// NodesEnqueued and ObjectsEnqueued count entries that passed the
	// signature check and entered the traversal's priority queue.
	NodesEnqueued, ObjectsEnqueued int
	// BlocksRandom and BlocksSequential are the disk block accesses, split
	// as in the paper's Figures 9b/12b.
	BlocksRandom, BlocksSequential uint64
}

// Add accumulates another record — one shard's slice of a fanned-out query —
// into w.
func (w *Work) Add(o Work) {
	w.NodesLoaded += o.NodesLoaded
	w.ObjectsLoaded += o.ObjectsLoaded
	w.FalsePositives += o.FalsePositives
	w.EntriesPruned += o.EntriesPruned
	w.NodesEnqueued += o.NodesEnqueued
	w.ObjectsEnqueued += o.ObjectsEnqueued
	w.BlocksRandom += o.BlocksRandom
	w.BlocksSequential += o.BlocksSequential
}

// QueryMetrics is the per-query observability record: a finished query's
// identity and outcome around the Work it did, delivered to a Sink exactly
// once, after the query finishes — never per traversal step.
type QueryMetrics struct {
	// Op names the query kind: "topk", "ranked", "area" for a boolean
	// range query, or "stream" for a stream its caller pulls.
	Op string
	// Shard is the shard index the record describes, or -1 for the
	// query's aggregate record. The shard merge, the one producer, emits
	// one record per shard plus one aggregate record per query.
	Shard int
	// K is the requested result count (0 for streaming and range
	// queries).
	K int
	// Keywords is the number of query keywords.
	Keywords int
	// Results is the number of results returned.
	Results int

	Work

	// Latency is the query's wall time.
	Latency time.Duration
	// Err reports whether the query failed.
	Err bool
	// Degraded reports whether the answer is partial because one or more
	// shards were out of rotation (sharded aggregate records only).
	Degraded bool
}

// Sink receives one QueryMetrics per finished query. Implementations must
// be safe for concurrent use; the engine calls RecordQuery from whichever
// goroutine ran the query.
type Sink interface {
	RecordQuery(QueryMetrics)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(QueryMetrics)

// RecordQuery calls f(m).
func (f SinkFunc) RecordQuery(m QueryMetrics) { f(m) }

// MultiSink fans one record out to several sinks (nil entries are skipped).
func MultiSink(sinks ...Sink) Sink {
	return SinkFunc(func(m QueryMetrics) {
		for _, s := range sinks {
			if s != nil {
				s.RecordQuery(m)
			}
		}
	})
}
