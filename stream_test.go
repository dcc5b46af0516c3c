package spatialkeyword

import (
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestStreamEndReleasesEngine: a stream that ends by itself — exhausted, or
// failed on a device error — has released the engine's shared lock and fixed
// its stats before its caller closes it: a writer gets in, and the stats a
// later Close leaves are the same.
func TestStreamEndReleasesEngine(t *testing.T) {
	e := newEngine(t, Config{SignatureBytes: 16})
	seedGrid(t, e, 60)
	var failReads atomic.Bool
	if !e.InjectFault(func(op storage.Op, id storage.BlockID) error {
		if failReads.Load() && op == storage.OpRead {
			return &storage.FaultError{Kind: storage.KindReadError, Op: op, Block: id}
		}
		return nil
	}) {
		t.Fatal("InjectFault refused")
	}
	// writerGetsIn fails the test if an Add cannot take the engine's lock.
	writerGetsIn := func(what string) {
		t.Helper()
		done := make(chan error, 1)
		go func() { _, err := e.Add([]float64{1, 1}, "gamma"); done <- err }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the stream still holds the engine", what)
		}
	}

	it, err := e.Search([]float64{500, 500}, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	ended := it.Stats()
	writerGetsIn("drained")
	it.Close()
	if it.Stats() != ended || ended.NodesLoaded == 0 || ended.BlocksRandom == 0 {
		t.Errorf("drained: stats %+v at the end, %+v after Close", ended, it.Stats())
	}

	it, err = e.Search([]float64{500, 500}, "alpha")
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
	writerGetsIn("errored")
	it.Close()
	if _, ok, _ := it.Next(); ok {
		t.Error("closed stream produced a result")
	}
}
