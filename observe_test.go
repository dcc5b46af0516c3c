package spatialkeyword

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spatialkeyword/internal/obs"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/storage"
)

// seedGrid fills the engine with a deterministic grid of objects. Half the
// objects carry the word "alpha", a third "beta", the rest padding — so a
// conjunctive query has matches to find and subtrees to prune.
func seedGrid(tb testing.TB, e *Engine, n int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	pad := []string{"oak", "elm", "fir", "ash", "yew", "bay", "ivy", "fig"}
	for i := 0; i < n; i++ {
		words := []string{pad[rng.Intn(len(pad))], pad[rng.Intn(len(pad))]}
		if i%2 == 0 {
			words = append(words, "alpha")
		}
		if i%3 == 0 {
			words = append(words, "beta")
		}
		pt := []float64{rng.Float64() * 1000, rng.Float64() * 1000}
		if _, err := e.Add(pt, strings.Join(words, " ")); err != nil {
			tb.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		tb.Fatal(err)
	}
}

// countTrace counts trace lines containing the marker.
func countTrace(trace []string, marker string) int {
	n := 0
	for _, line := range trace {
		if strings.Contains(line, marker) {
			n++
		}
	}
	return n
}

// TestExplainTraceMatchesStats pins the trace EXPLAIN ANALYZE prints to the
// traversal counters on a tree that is at least two levels tall: every
// expand, prune, enqueue and emit event a stream delivers to SetTrace must be
// counted by the same stream's Stats().
func TestExplainTraceMatchesStats(t *testing.T) {
	// 256-byte blocks cap nodes at a few entries, so 150 objects need a
	// root above the leaves.
	e := newEngine(t, Config{SignatureBytes: 8, BlockSize: 256})
	seedGrid(t, e, 150)
	if h := e.Stats().TreeHeight; h < 2 {
		t.Fatalf("tree height %d, want >= 2", h)
	}
	if _, err := e.Search([]float64{500}, "alpha"); !errors.Is(err, ErrBadPoint) {
		t.Errorf("1-d point on a 2-d engine: err = %v, want ErrBadPoint", err)
	}

	it, err := e.Search([]float64{500, 500}, "alpha", "beta")
	if err != nil {
		t.Fatal(err)
	}
	var trace []string
	it.SetTrace(func(ev rtree.TraceEvent) { trace = append(trace, ev.String()) })
	const pulled = 5
	for i := 0; i < pulled; i++ {
		if _, ok, err := it.Next(); err != nil || !ok {
			t.Fatalf("stream ended early (i=%d, err=%v)", i, err)
		}
	}
	it.Close()
	qs := it.Stats()

	if got, want := countTrace(trace, "expand node"), qs.NodesLoaded; got != want {
		t.Errorf("expand lines = %d, NodesLoaded = %d", got, want)
	}
	if got, want := countTrace(trace, "prune "), qs.EntriesPruned; got != want {
		t.Errorf("prune lines = %d, EntriesPruned = %d", got, want)
	}
	if got, want := countTrace(trace, "enqueue subtree"), qs.NodesEnqueued; got != want {
		t.Errorf("enqueue-subtree lines = %d, NodesEnqueued = %d", got, want)
	}
	if got, want := countTrace(trace, "enqueue object"), qs.ObjectsEnqueued; got != want {
		t.Errorf("enqueue-object lines = %d, ObjectsEnqueued = %d", got, want)
	}
	// No false positives at this signature length would make the two equal;
	// either way every result was emitted, and only loaded objects are.
	if got := countTrace(trace, "emit object"); got < pulled || got != qs.ObjectsLoaded {
		t.Errorf("emit lines = %d, want ObjectsLoaded = %d and at least the %d results", got, qs.ObjectsLoaded, pulled)
	}
	if qs.NodesLoaded < 3 {
		t.Errorf("NodesLoaded = %d; a 2-level traversal should expand the root and leaves", qs.NodesLoaded)
	}
	if qs.EntriesPruned == 0 {
		t.Error("EntriesPruned = 0; the conjunctive query should prune subtrees")
	}
}

// TestSearchIterStatsFalsePositives forces signature collisions with a
// 1-byte signature and checks the stream's stats expose them: objects were
// fetched, failed text verification, and were counted as false positives.
func TestSearchIterStatsFalsePositives(t *testing.T) {
	e := newEngine(t, Config{SignatureBytes: 1, BitsPerWord: 4})
	seedGrid(t, e, 150)

	it, err := e.Search([]float64{500, 500}, "alpha", "beta")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	it.Close()
	qs := it.Stats()
	if qs.FalsePositives == 0 {
		t.Fatal("1-byte signatures produced no false positives")
	}
	if qs.ObjectsLoaded != n+qs.FalsePositives {
		t.Errorf("ObjectsLoaded = %d, want results %d + false positives %d",
			qs.ObjectsLoaded, n, qs.FalsePositives)
	}
}

// TestEngineSinkRecords checks every query entry point delivers exactly one
// whole-engine record whose counters match the query's reported stats.
func TestEngineSinkRecords(t *testing.T) {
	e := newEngine(t, Config{SignatureBytes: 16})
	seedGrid(t, e, 60)

	var recs []QueryMetrics
	e.SetMetricsSink(obs.SinkFunc(func(m QueryMetrics) { recs = append(recs, m) }))

	q := []float64{500, 500}
	res, qs, err := e.TopKWithStats(3, q, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("topk records = %d", len(recs))
	}
	m := recs[0]
	if m.Op != "topk" || m.Shard != -1 || m.K != 3 || m.Keywords != 1 || m.Results != len(res) {
		t.Fatalf("topk record = %+v", m)
	}
	if m.Work != qs.Work {
		t.Fatalf("topk record %+v does not match stats %+v", m, qs)
	}
	if m.Latency <= 0 {
		t.Error("topk latency not recorded")
	}

	recs = nil
	if _, err := e.TopKRanked(3, q, "alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.TopKArea(3, []float64{400, 400}, []float64{600, 600}, "alpha"); err != nil {
		t.Fatal(err)
	}
	// A stream records once, when it is closed.
	it, err := e.Search(q, "alpha", "beta")
	if err != nil {
		t.Fatal(err)
	}
	streamResults := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		streamResults++
	}
	it.Close()
	ops := make([]string, len(recs))
	for i, r := range recs {
		ops[i] = r.Op
	}
	if fmt.Sprint(ops) != "[ranked area stream]" {
		t.Fatalf("ops = %v", ops)
	}
	if recs[2].Results != streamResults {
		t.Errorf("stream record results = %d, want %d", recs[2].Results, streamResults)
	}
}

// BenchmarkTopKSinkOverhead measures TopK over a 10k-object fixture with
// the metrics sink disabled vs recording into a registry. The sink fires
// once per query, so the delta should stay well under 5%.
func BenchmarkTopKSinkOverhead(b *testing.B) {
	e, err := NewEngine(Config{SignatureBytes: 16})
	if err != nil {
		b.Fatal(err)
	}
	seedGrid(b, e, 10000)
	recorder := obs.NewQueryRecorder(obs.NewRegistry())
	for _, mode := range []struct {
		name string
		sink MetricsSink
	}{{"off", nil}, {"on", recorder}} {
		b.Run("sink="+mode.name, func(b *testing.B) {
			e.SetMetricsSink(mode.sink)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.TopK(10, []float64{500, 500}, "alpha", "beta"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	e.SetMetricsSink(nil)
	_ = time.Now // future: report p99 from the recorder's histogram
}

// TestStreamSinkRecordsOnClose: a stream's one record is delivered when the
// query ends — at exhaustion, at an error or at Close, never twice — with
// its results, traversal counters, block counts and error, whether the
// stream was drained, abandoned after one result, or failed. A stream that
// ended by itself has released the engine: a writer gets in before Close.
func TestStreamSinkRecordsOnClose(t *testing.T) {
	e := newEngine(t, Config{SignatureBytes: 16})
	seedGrid(t, e, 60)
	var recs []QueryMetrics
	e.SetMetricsSink(obs.SinkFunc(func(m QueryMetrics) { recs = append(recs, m) }))
	// Armed, every device read fails.
	var failReads atomic.Bool
	if !e.InjectFault(func(op storage.Op, id storage.BlockID) error {
		if failReads.Load() && op == storage.OpRead {
			return &storage.FaultError{Kind: storage.KindReadError, Op: op, Block: id}
		}
		return nil
	}) {
		t.Fatal("InjectFault refused")
	}
	q := []float64{500, 500}

	// closed checks the one record a just-ended stream delivered.
	closed := func(name string, stats QueryStats, results int, wantErr bool) {
		t.Helper()
		if len(recs) != 1 {
			t.Fatalf("%s: %d records after the stream ended, want 1", name, len(recs))
		}
		m := recs[0]
		recs = nil
		if m.Op != "stream" || m.Shard != -1 || m.K != 0 || m.Results != results || m.Err != wantErr {
			t.Errorf("%s: record %+v, want op stream, %d results, err=%v", name, m, results, wantErr)
		}
		if m.Work != stats.Work {
			t.Errorf("%s: record %+v does not match stats %+v", name, m, stats)
		}
		if m.NodesLoaded == 0 || m.BlocksRandom == 0 || m.Latency <= 0 {
			t.Errorf("%s: record %+v reports no work", name, m)
		}
	}

	// Drained.
	it, err := e.Search(q, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	closed("drained", it.Stats(), n, false)
	if _, err := e.Add([]float64{1, 1}, "gamma"); err != nil { // would block on a held share
		t.Fatal(err)
	}
	it.Close()
	if len(recs) != 0 {
		t.Fatal("Close after exhaustion recorded again")
	}

	// Abandoned after one result, distance-first and ranked.
	it, err = e.Search(q, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); err != nil || !ok {
		t.Fatalf("first result: ok=%v err=%v", ok, err)
	}
	if len(recs) != 0 {
		t.Fatalf("abandoned: %d records before Close", len(recs))
	}
	it.Close()
	closed("abandoned", it.Stats(), 1, false)
	if _, ok, _ := it.Next(); ok {
		t.Error("closed stream produced a result")
	}

	rit, err := e.SearchRanked(q, "alpha", "beta")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rit.Next(); err != nil || !ok {
		t.Fatalf("first ranked result: ok=%v err=%v", ok, err)
	}
	rit.Close()
	closed("ranked abandoned", rit.Stats(), 1, false)

	// Errored: the device fails under the stream after its first result.
	it, err = e.Search(q, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); err != nil || !ok {
		t.Fatalf("first result: ok=%v err=%v", ok, err)
	}
	failReads.Store(true)
	if _, _, err := it.Next(); !storage.IsIOFault(err) {
		t.Fatalf("Next over a failing device: %v", err)
	}
	failReads.Store(false)
	closed("errored", it.Stats(), 1, true)
	it.Close()
	if len(recs) != 0 {
		t.Fatal("Close after an error recorded again")
	}
}
