package shard

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/obs"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/wal"
)

// degradeFixture builds a 4-shard in-memory engine with a spread of objects
// sharing one common keyword, plus health instruments in a registry.
func degradeFixture(t *testing.T) (*ShardedEngine, *obs.Counter, *obs.Gauge, *obs.Registry) {
	t.Helper()
	s, err := New(spatialkeyword.Config{SignatureBytes: 16}, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() }) //nolint:errcheck
	for i := 0; i < 120; i++ {
		text := fmt.Sprintf("poi %d common kw%d", i, i%7)
		if _, err := s.Add([]float64{float64(i % 12), float64(i / 12)}, text); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	errs := reg.Counter("sk_shard_errors_total", "t")
	unhealthy := reg.Gauge("sk_shards_unhealthy", "t")
	s.SetHealthMetrics(errs, unhealthy)
	return s, errs, unhealthy, reg
}

// failAllReads is a fault hook that fails every read with a typed fault.
func failAllReads(op storage.Op, id storage.BlockID) error {
	if op == storage.OpRead {
		return &storage.FaultError{Kind: storage.KindReadError, Op: op, Block: id}
	}
	return nil
}

// TestShardFaultDegradesQuery is the acceptance scenario: one faulted shard
// must not fail the query — the fan-out serves partial top-k with
// Degraded=true, the shard is taken out of rotation, and the health
// instruments record it.
func TestShardFaultDegradesQuery(t *testing.T) {
	checkGoroutines(t)
	s, errs, unhealthy, _ := degradeFixture(t)

	full, st, err := s.TopKWithStats(200, []float64{5, 5}, "common")
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded {
		t.Fatal("healthy engine reported degraded")
	}
	if len(full) != 120 {
		t.Fatalf("full result count = %d, want 120", len(full))
	}

	if !s.InjectShardFault(1, failAllReads) {
		t.Fatal("InjectShardFault refused")
	}
	partial, st, err := s.TopKWithStats(200, []float64{5, 5}, "common")
	if err != nil {
		t.Fatalf("degraded query failed instead of serving partial results: %v", err)
	}
	if !st.Degraded {
		t.Fatal("QueryStats.Degraded = false after shard fault")
	}
	if len(partial) == 0 || len(partial) >= len(full) {
		t.Fatalf("partial results = %d of %d, want a proper non-empty subset", len(partial), len(full))
	}
	if errs.Value() == 0 {
		t.Error("shard error counter not incremented")
	}
	if unhealthy.Value() != 1 {
		t.Errorf("unhealthy gauge = %d, want 1", unhealthy.Value())
	}
	if !s.Degraded() {
		t.Error("Degraded() = false")
	}
	h := s.Health()
	if len(h) != 4 || h[1].Healthy || h[1].Err == "" {
		t.Errorf("health = %+v, want shard 1 unhealthy with an error", h)
	}
	for _, i := range []int{0, 2, 3} {
		if !h[i].Healthy {
			t.Errorf("shard %d marked unhealthy", i)
		}
	}

	// A later query skips the dead shard without touching it again: still
	// degraded, same partial answer, no error.
	again, st, err := s.TopKWithStats(200, []float64{5, 5}, "common")
	if err != nil || !st.Degraded || len(again) != len(partial) {
		t.Fatalf("repeat degraded query: n=%d err=%v degraded=%v", len(again), err, st.Degraded)
	}

	// Repair: clear the fault, revive the shard, and the full answer is back.
	if !s.InjectShardFault(1, nil) {
		t.Fatal("clearing fault refused")
	}
	if n := s.ResetHealth(); n != 1 {
		t.Fatalf("ResetHealth revived %d shards, want 1", n)
	}
	if unhealthy.Value() != 0 {
		t.Errorf("unhealthy gauge = %d after reset, want 0", unhealthy.Value())
	}
	recovered, st, err := s.TopKWithStats(200, []float64{5, 5}, "common")
	if err != nil || st.Degraded || len(recovered) != len(full) {
		t.Fatalf("after repair: n=%d err=%v degraded=%v", len(recovered), err, st.Degraded)
	}
}

// TestShardFaultDegradesAllQueryKinds exercises the other fan-out paths
// against a faulted shard: all serve partial answers rather than erroring.
func TestShardFaultDegradesAllQueryKinds(t *testing.T) {
	checkGoroutines(t)
	s, _, _, _ := degradeFixture(t)
	if !s.InjectShardFault(2, failAllReads) {
		t.Fatal("InjectShardFault refused")
	}
	if _, err := s.TopKRanked(10, []float64{5, 5}, "common"); err != nil {
		t.Errorf("TopKRanked on degraded engine: %v", err)
	}
	if _, err := drain[spatialkeyword.Result](s.SearchArea([]float64{0, 0}, []float64{12, 12}, "common")); err != nil {
		t.Errorf("SearchArea on degraded engine: %v", err)
	}
	if _, _, err := s.WithinArea([]float64{0, 0}, []float64{12, 12}, "common"); err != nil {
		t.Errorf("WithinArea on degraded engine: %v", err)
	}
	if !s.Degraded() {
		t.Error("engine not marked degraded")
	}
}

// drain pulls a stream dry and closes it, returning the result count.
func drain[R any](it stream[R], err error) (int, error) {
	if err != nil {
		return 0, err
	}
	defer it.Close()
	for n := 0; ; n++ {
		if _, ok, err := it.Next(); err != nil || !ok {
			return n, err
		}
	}
}

// topkKinds runs each of the sharded top-k entry points with a k that covers
// the whole fixture, and each of the three streams to its end, returning the
// result count.
var topkKinds = []struct {
	name string
	run  func(s *ShardedEngine) (int, error)
}{
	{"TopK", func(s *ShardedEngine) (int, error) {
		r, err := s.TopK(200, []float64{5, 5}, "common")
		return len(r), err
	}},
	{"TopKSerial", func(s *ShardedEngine) (int, error) {
		r, err := s.TopKSerial(200, []float64{5, 5}, "common")
		return len(r), err
	}},
	{"TopKRanked", func(s *ShardedEngine) (int, error) {
		r, err := s.TopKRanked(200, []float64{5, 5}, "common")
		return len(r), err
	}},
	{"Search", func(s *ShardedEngine) (int, error) {
		return drain[spatialkeyword.Result](s.Search([]float64{5, 5}, "common"))
	}},
	{"SearchArea", func(s *ShardedEngine) (int, error) {
		return drain[spatialkeyword.Result](s.SearchArea([]float64{4, 4}, []float64{6, 6}, "common"))
	}},
	{"SearchRanked", func(s *ShardedEngine) (int, error) {
		return drain[spatialkeyword.RankedResult](s.SearchRanked([]float64{5, 5}, "common"))
	}},
}

// TestEveryMergeFollowsShardSafetyRules runs the one merge's safety rules
// through every top-k entry point and the three streams. A faulting shard:
// degraded answer from the healthy shards, shard marked unhealthy, no error,
// and the shard is not touched again. A shard handing back a local ID it
// never assigned: the same degradation with the typed corruption error on
// record, and no panic.
func TestEveryMergeFollowsShardSafetyRules(t *testing.T) {
	for _, kind := range topkKinds {
		t.Run(kind.name+"/fault", func(t *testing.T) {
			checkGoroutines(t)
			s, errs, unhealthy, _ := degradeFixture(t)
			if !s.InjectShardFault(1, failAllReads) {
				t.Fatal("InjectShardFault refused")
			}
			n, err := kind.run(s)
			if err != nil {
				t.Fatalf("faulted shard failed the query: %v", err)
			}
			if n == 0 || n >= 120 {
				t.Fatalf("partial results = %d of 120, want a proper non-empty subset", n)
			}
			for i, h := range s.Health() {
				if h.Healthy != (i != 1) {
					t.Fatalf("shard %d healthy = %v, want exactly shard 1 unhealthy", i, h.Healthy)
				}
			}
			if errs.Value() != 1 || unhealthy.Value() != 1 {
				t.Fatalf("shard errors = %d, unhealthy gauge = %d, want 1 and 1", errs.Value(), unhealthy.Value())
			}
			// The fault is still armed: a second query that read the shard
			// would count a second error.
			if again, err := kind.run(s); err != nil || again != n || errs.Value() != 1 {
				t.Fatalf("repeat query: n=%d (want %d) err=%v shard errors=%d (want 1)", again, n, err, errs.Value())
			}
		})
		t.Run(kind.name+"/corrupt", func(t *testing.T) {
			checkGoroutines(t)
			s, _, _, _ := degradeFixture(t)
			sh := s.shards[2]
			held := len(sh.globals)
			sh.globals = sh.globals[:held/2] // the shard now returns IDs it "never assigned"
			n, err := kind.run(s)
			if err != nil {
				t.Fatalf("corrupt shard failed the query: %v", err)
			}
			if n == 0 || n > 120-(held-held/2) {
				t.Fatalf("results = %d, want between 1 and %d", n, 120-(held-held/2))
			}
			if last, _ := sh.lastErr.Load().(error); !sh.unhealthy.Load() || !errors.Is(last, errCorruptShard) {
				t.Fatalf("shard 2 unhealthy=%v lastErr=%v, want the typed corruption error", sh.unhealthy.Load(), last)
			}
		})
	}
}

// TestDegradedQueryMetric checks the aggregate observability record: a
// degraded fan-out bumps sk_query_degraded_total.
func TestDegradedQueryMetric(t *testing.T) {
	s, _, _, reg := degradeFixture(t)
	rec := obs.NewQueryRecorder(reg)
	s.SetMetricsSink(rec)
	if !s.InjectShardFault(0, failAllReads) {
		t.Fatal("InjectShardFault refused")
	}
	if _, _, err := s.TopKWithStats(10, []float64{5, 5}, "common"); err != nil {
		t.Fatal(err)
	}
	c := reg.Counter("sk_query_degraded_total", "Queries answered partially with shards out of rotation.", obs.L("op", "topk"))
	if c.Value() != 1 {
		t.Errorf("sk_query_degraded_total = %d, want 1", c.Value())
	}
}

// TestDegradedRangeQuery: a range query with one shard faulted answers from
// the healthy shards, says it is partial, and is recorded like every other
// merged query — one aggregate record with op "area", counted by the
// degraded-query family.
func TestDegradedRangeQuery(t *testing.T) {
	s, _, _, reg := degradeFixture(t)
	var aggs []obs.QueryMetrics
	s.SetMetricsSink(obs.MultiSink(obs.NewQueryRecorder(reg), obs.SinkFunc(func(m obs.QueryMetrics) {
		if m.Shard < 0 {
			aggs = append(aggs, m)
		}
	})))
	const faulted = 2
	if !s.InjectShardFault(faulted, failAllReads) {
		t.Fatal("InjectShardFault refused")
	}
	// The fixture's object i sits at (i%12, i/12) and carries kw(i%7).
	lo, hi := []float64{2, 1}, []float64{9, 6}
	var want []uint64
	for i := uint64(0); i < 120; i++ {
		x, y := float64(i%12), float64(i/12)
		if x < lo[0] || x > hi[0] || y < lo[1] || y > hi[1] || i%7 != 3 {
			continue
		}
		loc, err := s.locate(i)
		if err != nil {
			t.Fatal(err)
		}
		if loc.shard != faulted {
			want = append(want, i)
		}
	}
	res, st, err := s.WithinArea(lo, hi, "kw3")
	if err != nil {
		t.Fatalf("degraded range query failed instead of serving partial results: %v", err)
	}
	if got := resultIDs(res); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("degraded WithinArea = %v, healthy shards' brute force %v", got, want)
	}
	if !st.Degraded {
		t.Error("QueryStats.Degraded = false with a shard faulted")
	}
	if len(aggs) != 1 || aggs[0].Op != "area" || !aggs[0].Degraded || aggs[0].Results != len(want) {
		t.Errorf("aggregate records = %+v, want one degraded \"area\" record of %d results", aggs, len(want))
	}
	c := reg.Counter("sk_query_degraded_total", "Queries answered partially with shards out of rotation.", obs.L("op", "area"))
	if c.Value() != 1 {
		t.Errorf("sk_query_degraded_total{op=\"area\"} = %d, want 1", c.Value())
	}
}

// TestNonStorageErrorStillFails pins the classification boundary: an error
// that is not a storage fault must fail the query, not degrade the shard,
// and of two such errors the query reports the first in shard order.
func TestNonStorageErrorStillFails(t *testing.T) {
	s, errs, _, _ := degradeFixture(t)
	lo, hi := []float64{0, 0}, []float64{12, 12}
	if _, _, err := s.WithinArea(lo, hi, "common"); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("not a storage problem")
	later := errors.New("a later shard's problem")
	for i, err := range []error{1: boom, 2: later} {
		if err == nil {
			continue
		}
		s.InjectShardFault(i, func(op storage.Op, _ storage.BlockID) error {
			if op == storage.OpRead {
				return err
			}
			return nil
		})
	}
	_, _, err := s.WithinArea(lo, hi, "common")
	if !errors.Is(err, boom) {
		t.Fatalf("query error swallowed, or not the first in shard order: %v", err)
	}
	if s.Degraded() {
		t.Error("non-storage error degraded a shard")
	}
	if errs.Value() != 0 {
		t.Error("non-storage error bumped the shard error counter")
	}
}

// TestFailedWriteLeavesCorpusUntouched: corpus statistics have one owner,
// each shard's engine, which counts a row only once it is applied. An Add
// whose log append fails and a replicated batch whose apply fails must move
// neither NumDocs nor the document frequency of the failed row's words, and
// ranked scores must equal those of the same directory reopened, which
// counts from the files.
func TestFailedWriteLeavesCorpusUntouched(t *testing.T) {
	const failedText = "phantom common"
	create := func(t *testing.T, dir string) *ShardedEngine {
		t.Helper()
		s, err := NewDurable(walShardConfig(), dir, Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ranked := func(t *testing.T, s *ShardedEngine) []spatialkeyword.RankedResult {
		t.Helper()
		res, err := s.TopKRanked(30, []float64{5, 1}, "phantom", "common")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// corpus reads the document count and the failed row's words' frequencies.
	corpus := func(s *ShardedEngine) [3]int {
		cs := s.Corpus()
		return [3]int{cs.NumDocs, cs.DocFreq("phantom"), cs.DocFreq("common")}
	}
	// check requires the corpus the failed write met, and the scores of the
	// directory reopened; it closes s.
	check := func(t *testing.T, s *ShardedEngine, dir string, want [3]int) {
		t.Helper()
		if got := corpus(s); got != want {
			t.Errorf("NumDocs, DocFreq(phantom), DocFreq(common) = %v after the failed write, want %v", got, want)
		}
		live := ranked(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		sameRanked(t, "live vs reopened", ranked(t, reopened), live)
	}
	failWrites := func(op storage.Op, id storage.BlockID) error {
		if op == storage.OpWrite {
			return &storage.FaultError{Kind: storage.KindWriteError, Op: op, Block: id}
		}
		return nil
	}

	t.Run("Add", func(t *testing.T) {
		checkGoroutines(t)
		dir := t.TempDir()
		s := create(t, dir)
		for i := 0; i < 20; i++ {
			if _, err := s.Add([]float64{float64(i), 1}, fmt.Sprintf("poi %d common", i)); err != nil {
				t.Fatal(err)
			}
		}
		before := corpus(s)
		s.InjectShardFault(1, failWrites)
		if _, err := s.Add(pointOnShard(s, 1), failedText); err == nil {
			t.Fatal("add over a failing log succeeded")
		}
		s.InjectShardFault(1, nil)
		s.ResetHealth()
		check(t, s, dir, before)
	})

	t.Run("ApplyReplicatedBatch", func(t *testing.T) {
		checkGoroutines(t)
		leader := create(t, t.TempDir())
		defer leader.Close()
		streams := make([][]wal.Record, 2)
		leader.SetReplicationHooks(func(shard int, _ uint64, rec wal.Record) {
			streams[shard] = append(streams[shard], rec)
		}, nil)
		for i := 0; i < 20; i++ {
			if _, err := leader.Add([]float64{float64(i), 1}, fmt.Sprintf("poi %d common", i)); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		replica := create(t, dir)
		for shard, recs := range streams {
			if err := replica.ApplyReplicatedBatch(shard, recs); err != nil {
				t.Fatalf("stream %d: %v", shard, err)
			}
		}
		before := corpus(replica)
		// The next record of shard 1's stream arrives after a gap: it lands
		// at the wrong local sequence number, and the apply fails.
		gap := wal.Record{Seq: uint64(len(streams[1]) + 2), Op: wal.OpAdd, ID: uint64(len(replica.shards[1].globals)),
			Tag: uint64(leader.NumObjects()), Point: pointOnShard(replica, 1), Text: failedText}
		if err := replica.ApplyReplicatedBatch(1, []wal.Record{gap}); err == nil {
			t.Fatal("a record past a stream gap applied")
		}
		check(t, replica, dir, before)
	})
}

// checkGoroutines fails the test when the fan-out leaks goroutines (a
// faulted shard's worker must still exit).
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}
