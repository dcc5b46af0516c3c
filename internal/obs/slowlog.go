package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SlowLog is a Sink that writes one structured JSON line per query slower
// than a threshold. Lines look like:
//
//	{"t":"2026-08-06T12:00:00Z","op":"topk","latency_ms":61.2,"k":10,
//	 "keywords":2,"results":10,"nodes_expanded":41,"entries_pruned":380,
//	 "objects_fetched":12,"sig_false_positives":2,
//	 "random_blocks":53,"sequential_blocks":7,"err":false}
//
// The writer is guarded by a mutex (line-atomicity), but queries under the
// threshold never touch it. A zero threshold logs every query.
type SlowLog struct {
	threshold time.Duration
	mu        sync.Mutex
	w         io.Writer
	dropped   Counter // lines lost to write errors
}

// NewSlowLog returns a slow-query log writing to w.
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	return &SlowLog{w: w, threshold: threshold}
}

// slowEntry is the JSON shape of one slow-query line.
type slowEntry struct {
	Time              string  `json:"t"`
	Op                string  `json:"op"`
	LatencyMS         float64 `json:"latency_ms"`
	K                 int     `json:"k"`
	Keywords          int     `json:"keywords"`
	Results           int     `json:"results"`
	NodesExpanded     int     `json:"nodes_expanded"`
	EntriesPruned     int     `json:"entries_pruned"`
	ObjectsFetched    int     `json:"objects_fetched"`
	SigFalsePositives int     `json:"sig_false_positives"`
	RandomBlocks      uint64  `json:"random_blocks"`
	SequentialBlocks  uint64  `json:"sequential_blocks"`
	Err               bool    `json:"err,omitempty"`
}

// RecordQuery implements Sink: aggregate records over the threshold are
// written as one JSON line; per-shard slices are skipped (the aggregate
// record carries the query's totals).
func (l *SlowLog) RecordQuery(m QueryMetrics) {
	if m.Shard >= 0 || m.Latency < l.threshold {
		return
	}
	e := slowEntry{
		Time:              time.Now().UTC().Format(time.RFC3339Nano),
		Op:                m.Op,
		LatencyMS:         float64(m.Latency) / float64(time.Millisecond),
		K:                 m.K,
		Keywords:          m.Keywords,
		Results:           m.Results,
		NodesExpanded:     m.NodesLoaded,
		EntriesPruned:     m.EntriesPruned,
		ObjectsFetched:    m.ObjectsLoaded,
		SigFalsePositives: m.FalsePositives,
		RandomBlocks:      m.BlocksRandom,
		SequentialBlocks:  m.BlocksSequential,
		Err:               m.Err,
	}
	line, err := json.Marshal(e)
	if err != nil {
		l.dropped.Inc()
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	_, err = l.w.Write(line)
	l.mu.Unlock()
	if err != nil {
		l.dropped.Inc()
	}
}
