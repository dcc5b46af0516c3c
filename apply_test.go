package spatialkeyword

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/wal"
)

// engineState is everything the three write routes must agree on.
type engineState struct {
	Rows    []Object
	N       int
	Deleted []uint64
	NumDocs int
	DocFreq map[string]int
	TopK    [][]Result
	Ranked  [][]RankedResult
}

var routeWords = []string{"cafe", "wifi", "pool", "bar", "gym", "spa", "golf", "vinyl"}

func stateOf(t *testing.T, e *Engine) engineState {
	t.Helper()
	st := engineState{N: e.NumObjects(), DocFreq: map[string]int{}}
	if err := e.Scan(func(o Object) error { st.Rows = append(st.Rows, o); return nil }); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < st.N; id++ {
		if isDeleted(e, uint64(id)) {
			st.Deleted = append(st.Deleted, uint64(id))
		}
	}
	cs := e.Corpus()
	st.NumDocs = cs.NumDocs
	for _, w := range routeWords {
		st.DocFreq[w] = cs.DocFreq(w)
	}
	for _, q := range [][]string{{"cafe"}, {"pool", "bar"}, {"poi"}} {
		res, err := e.TopK(6, []float64{50, 50}, q...)
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := e.TopKRanked(6, []float64{50, 50}, q...)
		if err != nil {
			t.Fatal(err)
		}
		st.TopK, st.Ranked = append(st.TopK, res), append(st.Ranked, ranked)
	}
	return st
}

// observe collects the engine's mutation events, copying the point each
// event only lends.
func observe(e *Engine) *[]MutationEvent {
	var evs []MutationEvent
	e.SetMutationObserver(func(ev MutationEvent) {
		ev.Point = append([]float64(nil), ev.Point...)
		evs = append(evs, ev)
	})
	return &evs
}

// TestMutationRoutesAgree runs one seeded program of adds and deletes down the
// three routes a mutation can take into Engine.apply — committed locally on a
// WAL engine, shipped record by record into a second engine through
// ApplyReplicated and SyncWAL, and replayed by a crash-reopen of the first —
// and requires one outcome: the same rows, deletions, corpus statistics and
// query answers on all three, the same mutation events and byte-identical log
// files on the first two.
func TestMutationRoutesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	localDir, replicaDir := t.TempDir(), t.TempDir()
	local, err := NewDurableEngine(walConfig(), localDir)
	if err != nil {
		t.Fatal(err)
	}
	var shipped []wal.Record
	local.SetReplicationHooks(func(gen uint64, rec wal.Record) {
		if gen != 1 {
			t.Errorf("record %d shipped for generation %d", rec.Seq, gen)
		}
		shipped = append(shipped, rec)
	}, nil)
	localEvents := observe(local)

	var live []uint64
	for step := 0; step < 90; step++ {
		if len(live) > 0 && rng.Intn(10) < 3 {
			i := rng.Intn(len(live))
			if err := local.Delete(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
			continue
		}
		words := []string{"poi"}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			words = append(words, routeWords[rng.Intn(len(routeWords))])
		}
		id, err := local.AddTagged([]float64{rng.Float64() * 100, rng.Float64() * 100}, strings.Join(words, " "), uint64(1000+step))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	want := stateOf(t, local)
	if len(want.Deleted) == 0 || len(want.Deleted) == want.N {
		t.Fatalf("program deleted %d of %d objects; it should mix both", len(want.Deleted), want.N)
	}

	replica, err := NewDurableEngine(walConfig(), replicaDir)
	if err != nil {
		t.Fatal(err)
	}
	replicaEvents := observe(replica)
	for i, rec := range shipped {
		if err := replica.ApplyReplicated(rec); err != nil {
			t.Fatalf("replicated record %d: %v", rec.Seq, err)
		}
		if i%7 == 6 {
			if err := replica.SyncWAL(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := replica.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, replica); !reflect.DeepEqual(got, want) {
		t.Errorf("replicated engine differs from the local one:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(*replicaEvents, *localEvents) {
		t.Errorf("mutation events differ:\nreplicated %+v\n     local %+v", *replicaEvents, *localEvents)
	}
	if len(*localEvents) != len(shipped) {
		t.Errorf("%d events for %d logged records", len(*localEvents), len(shipped))
	}

	// Crash both: no Save, just drop the files.
	if err := local.Close(); err != nil {
		t.Fatal(err)
	}
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	localLog, err := os.ReadFile(filepath.Join(localDir, walName(1)))
	if err != nil {
		t.Fatal(err)
	}
	replicaLog, err := os.ReadFile(filepath.Join(replicaDir, walName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localLog, replicaLog) {
		t.Errorf("log files differ: local %d bytes, replicated %d bytes", len(localLog), len(replicaLog))
	}

	recovered, err := OpenEngine(localDir)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := stateOf(t, recovered); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed engine differs from the local one:\n got %+v\nwant %+v", got, want)
	}
	if got := recovered.WALReplayRecords(); !reflect.DeepEqual(got, shipped) {
		t.Errorf("replayed %d records, the log shipped %d (or they differ)", len(got), len(shipped))
	}
}

// TestMutationRoutesRefuseBadRecords: a record that does not fit the engine —
// an add under the wrong ID, a gap in the sequence, an unknown op — breaks a
// replica's log for good once it is staged, and fails the open that replays it.
func TestMutationRoutesRefuseBadRecords(t *testing.T) {
	good := wal.Record{Seq: 1, Op: wal.OpAdd, ID: 0, Point: []float64{1, 1}, Text: "fits poi"}
	for _, tc := range []struct {
		name    string
		rec     wal.Record
		wantErr string
	}{
		{"wrong id", wal.Record{Seq: 1, Op: wal.OpAdd, ID: 5, Point: []float64{1, 1}, Text: "x"},
			"spatialkeyword: replicated record 1 adds object 5, store is at 0"},
		{"wrong sequence", wal.Record{Seq: 7, Op: wal.OpAdd, ID: 0, Point: []float64{1, 1}, Text: "x"},
			"spatialkeyword: replicated record 7 landed at local sequence 1"},
		{"unknown op", wal.Record{Seq: 1, Op: 9},
			"spatialkeyword: replicated record 1 has unknown op 9"},
	} {
		t.Run("replicated/"+tc.name, func(t *testing.T) {
			e, err := NewDurableEngine(walConfig(), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			events := observe(e)
			if err := e.ApplyReplicated(tc.rec); err == nil || err.Error() != tc.wantErr {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
			want := "spatialkeyword: write-ahead log broken: " + tc.wantErr
			if err := e.ApplyReplicated(good); err == nil || err.Error() != want {
				t.Errorf("good record after the bad one: err = %v, want %q", err, want)
			}
			if _, err := e.Add([]float64{2, 2}, "local poi"); err == nil || err.Error() != want {
				t.Errorf("local add after the bad record: err = %v, want %q", err, want)
			}
			if err := e.Save(); err == nil {
				t.Error("save after the bad record succeeded")
			}
			if info := e.WALInfo(); info.Broken == nil || e.NumObjects() != 0 || len(*events) != 0 {
				t.Errorf("broken = %v, objects = %d, events = %d; want a broken log and nothing applied",
					info.Broken, e.NumObjects(), len(*events))
			}
		})
	}

	// The replay route reads what a log holds, so the bad record is written
	// into a closed engine's log behind its back.
	plant := func(t *testing.T, rec wal.Record) string {
		dir := t.TempDir()
		e, err := NewDurableEngine(walConfig(), dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		fd, err := storage.OpenFileDisk(filepath.Join(dir, walName(1)))
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := wal.Open(fd)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wal.NewAppender(l, 0).Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := fd.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	t.Run("replayed/wrong id", func(t *testing.T) {
		_, err := OpenEngine(plant(t, wal.Record{Op: wal.OpAdd, ID: 5, Point: []float64{1, 1}, Text: "x"}))
		want := "spatialkeyword: wal replay: record 1 adds object 5, store is at 0"
		if err == nil || err.Error() != want {
			t.Fatalf("open: err = %v, want %q", err, want)
		}
	})
	t.Run("replayed/failed apply", func(t *testing.T) {
		_, err := OpenEngine(plant(t, wal.Record{Op: wal.OpDelete, ID: 3}))
		if err == nil || !strings.HasPrefix(err.Error(), "spatialkeyword: wal replay delete 3: ") {
			t.Fatalf("open: err = %v, want a wal replay delete 3 failure", err)
		}
	})
	t.Run("replayed/unknown op", func(t *testing.T) {
		// The log's own decoder refuses an unknown op before the engine sees
		// it: recovery truncates the frame like any torn tail.
		e, err := OpenEngine(plant(t, wal.Record{Op: 9}))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if info := e.WALInfo(); info.TornTails != 1 || info.ReplayedRecords != 0 {
			t.Errorf("torn tails = %d, replayed = %d; want the frame dropped as a torn tail", info.TornTails, info.ReplayedRecords)
		}
	})
}

// TestWALInfoCountsAcrossSave: WALInfo's appends and fsyncs are totals since
// open, so the log rotation a Save performs must not restart them.
func TestWALInfoCountsAcrossSave(t *testing.T) {
	e, err := NewDurableEngine(walConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	add := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := e.Add([]float64{float64(i), 1}, fmt.Sprintf("poi %d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(3)
	before := e.WALInfo()
	if err := e.Save(); err != nil {
		t.Fatal(err)
	}
	add(2)
	after := e.WALInfo()
	if before.Appends != 3 || after.Appends != 5 {
		t.Errorf("appends = %d before the save and %d after, want 3 and 5", before.Appends, after.Appends)
	}
	if after.Fsyncs < before.Fsyncs+2 {
		t.Errorf("fsyncs = %d before the save and %d after two more durable adds", before.Fsyncs, after.Fsyncs)
	}
}

// isDeleted reports whether row id of r no longer resolves to a live row:
// Rows passes it over as deleted or, below NumObjects, as never stored.
func isDeleted(r Reader, id uint64) bool {
	live := false
	err := r.Rows([]uint64{id}, nil, func(int, []float64, []string) { live = true })
	return err == nil && !live
}
