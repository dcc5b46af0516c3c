package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// Dropped reports how many lines were lost to marshal or write errors.
func (l *SlowLog) Dropped() uint64 { return l.dropped.Value() }

func TestSlowLogThreshold(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(&buf, 50*time.Millisecond)
	l.RecordQuery(QueryMetrics{Op: "topk", Shard: -1, Latency: 10 * time.Millisecond})
	if buf.Len() != 0 {
		t.Fatalf("fast query was logged: %q", buf.String())
	}
	l.RecordQuery(QueryMetrics{
		Op: "topk", Shard: -1, Latency: 60 * time.Millisecond,
		K: 5, Keywords: 2, Results: 5,
		Work: Work{NodesLoaded: 7, EntriesPruned: 12, ObjectsLoaded: 6, FalsePositives: 1, BlocksRandom: 13, BlocksSequential: 2},
	})
	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("slow query was not logged")
	}
	var e map[string]any
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("line is not JSON: %v\n%s", err, line)
	}
	if e["op"] != "topk" || e["latency_ms"].(float64) != 60 {
		t.Fatalf("bad entry: %v", e)
	}
	if e["nodes_expanded"].(float64) != 7 || e["random_blocks"].(float64) != 13 {
		t.Fatalf("bad counters: %v", e)
	}
	if _, hasT := e["t"]; !hasT {
		t.Fatalf("entry missing timestamp: %v", e)
	}
}

func TestSlowLogSkipsShardSlices(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(&buf, 0)
	l.RecordQuery(QueryMetrics{Op: "topk", Shard: 2, Latency: time.Second})
	if buf.Len() != 0 {
		t.Fatalf("per-shard record was logged: %q", buf.String())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("boom") }

func TestSlowLogDropped(t *testing.T) {
	l := NewSlowLog(failWriter{}, 0)
	l.RecordQuery(QueryMetrics{Op: "topk", Shard: -1, Latency: time.Second})
	if got := l.Dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
}
