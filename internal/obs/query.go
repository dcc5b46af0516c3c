package obs

import "time"

// QueryMetrics is the per-query observability record: one is populated per
// engine query from the traversal counters the search already keeps
// (rtree's per-iterator expand/prune/enqueue counts, the object-store
// fetch counters, and a storage.Meter I/O bracket) and delivered to a Sink
// exactly once, after the query finishes — never per traversal step.
type QueryMetrics struct {
	// Op names the query kind: "topk", "ranked", "area", "stream", "explain".
	Op string
	// Shard is the shard index the record describes, or -1 for a
	// whole-engine (or unsharded) record. A sharded engine emits one
	// record per shard plus one aggregate record per query.
	Shard int
	// K is the requested result count (0 for streaming queries).
	K int
	// Keywords is the number of query keywords.
	Keywords int
	// Results is the number of results returned.
	Results int

	// NodesExpanded is the number of index nodes dequeued and loaded.
	NodesExpanded int
	// EntriesPruned is the number of entries dropped by the signature
	// check — subtrees or objects never visited.
	EntriesPruned int
	// NodesEnqueued and ObjectsEnqueued count entries that passed the
	// check and entered the priority queue.
	NodesEnqueued   int
	ObjectsEnqueued int
	// ObjectsFetched is the number of objects read from the object file.
	ObjectsFetched int
	// SigFalsePositives counts fetched objects whose signature matched
	// the query but whose text failed verification (emitted-then-rejected
	// false positives; pruned entries are never verified, so
	// EntriesPruned is their upper-bound complement).
	SigFalsePositives int

	// RandomBlocks and SequentialBlocks are the disk block accesses the
	// query performed, split as in the paper's Figures 9b/12b.
	RandomBlocks     uint64
	SequentialBlocks uint64

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
