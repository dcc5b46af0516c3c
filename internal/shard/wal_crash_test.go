package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

// walShardConfig enables per-shard write-ahead logging.
func walShardConfig() spatialkeyword.Config {
	return spatialkeyword.Config{SignatureBytes: 16, WAL: true}
}

// shardedLiveTexts collects every live (non-deleted) object's text across
// all available shards, sorted.
func shardedLiveTexts(t *testing.T, s *ShardedEngine) []string {
	t.Helper()
	var texts []string
	for _, sh := range s.shards {
		if sh.eng == nil {
			continue
		}
		if err := sh.eng.Scan(func(o spatialkeyword.Object) error {
			if !isDeleted(sh.eng, o.ID) {
				texts = append(texts, o.Text)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(texts)
	return texts
}

// TestShardedWALRecoversUnsavedMutations: with per-shard WALs, mutations
// acknowledged after the last sharded Save survive a close/reopen — the
// shards replay their logs and the global→shard assignment is rebuilt from
// the replayed records' tags.
func TestShardedWALRecoversUnsavedMutations(t *testing.T) {
	checkGoroutines(t)
	dir := t.TempDir()
	s, err := NewDurable(walShardConfig(), dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var oracle []string
	for i := 0; i < 30; i++ {
		text := fmt.Sprintf("base %d poi", i)
		if _, err := s.Add([]float64{float64(i % 6), float64(i / 6)}, text); err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, text)
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	// Unsaved suffix: 12 adds and 2 deletes of previously saved objects.
	var gids []uint64
	for i := 0; i < 12; i++ {
		text := fmt.Sprintf("unsaved %d poi", i)
		gid, err := s.Add([]float64{float64(i % 4), 9 + float64(i/4)}, text)
		if err != nil {
			t.Fatal(err)
		}
		gids = append(gids, gid)
		oracle = append(oracle, text)
	}
	for _, gid := range []uint64{3, 17} {
		obj, err := s.Get(gid)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(gid); err != nil {
			t.Fatal(err)
		}
		for i, text := range oracle {
			if text == obj.Text {
				oracle = append(oracle[:i], oracle[i+1:]...)
				break
			}
		}
	}
	sort.Strings(oracle)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wi := s.WALInfo()
	if !wi.Enabled {
		t.Fatal("WALInfo.Enabled = false on a WAL engine")
	}
	if wi.ReplayedRecords != 14 {
		t.Fatalf("replayed %d records, want 14 (12 adds + 2 deletes)", wi.ReplayedRecords)
	}
	if got := shardedLiveTexts(t, s); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("recovered %d live objects, want %d:\n got %v\nwant %v",
			len(got), len(oracle), got, oracle)
	}
	// The rebuilt assignment routes recovered global IDs correctly.
	for i, gid := range gids {
		obj, err := s.Get(gid)
		if err != nil {
			t.Fatalf("Get(%d) after replay: %v", gid, err)
		}
		if want := fmt.Sprintf("unsaved %d poi", i); obj.Text != want {
			t.Fatalf("Get(%d) = %q, want %q", gid, obj.Text, want)
		}
	}
	res, err := s.TopK(len(oracle)+4, []float64{3, 3}, "poi")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(oracle) {
		t.Fatalf("query found %d, want %d", len(res), len(oracle))
	}
}

// TestShardedWALReplayDeterministic: two opens of the same crashed directory
// reconstruct identical state — same live objects, same assignment, same
// query results.
func TestShardedWALReplayDeterministic(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurable(walShardConfig(), dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Commit the empty baseline; everything after lives only in the WALs.
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if _, err := s.Add([]float64{float64(i % 5), float64(i / 5)}, fmt.Sprintf("det %d poi", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	open := func() ([]string, []shardLoc, []spatialkeyword.Result) {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		texts := shardedLiveTexts(t, s)
		assign := append([]shardLoc(nil), s.assign...)
		res, err := s.TopK(30, []float64{2, 2}, "poi")
		if err != nil {
			t.Fatal(err)
		}
		return texts, assign, res
	}
	texts1, assign1, res1 := open()
	texts2, assign2, res2 := open()
	if !reflect.DeepEqual(texts1, texts2) {
		t.Fatalf("replay content diverged:\n%v\n%v", texts1, texts2)
	}
	if !reflect.DeepEqual(assign1, assign2) {
		t.Fatalf("replay assignment diverged:\n%v\n%v", assign1, assign2)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("replay query results diverged:\n%v\n%v", res1, res2)
	}
	if len(texts1) != 24 {
		t.Fatalf("recovered %d objects, want 24", len(texts1))
	}
}

// TestShardedWALKillDuringSaveLosesNothing kills the sharded save at every
// step, like the non-WAL crash test — but with per-shard WALs the oracle is
// strictly stronger: every acknowledged mutation survives, whether or not
// any save ever committed it.
func TestShardedWALKillDuringSaveLosesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurable(walShardConfig(), dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var oracle []string
	add := func(text string, x, y float64) {
		t.Helper()
		if _, err := s.Add([]float64{x, y}, text); err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, text)
	}
	for i := 0; i < 30; i++ {
		add(fmt.Sprintf("base %d poi", i), float64(i%6), float64(i/6))
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}

	// Crash steps: -1 = inside the manifest write, 0..2 = before shard i's
	// save, 3 = after all shard saves but before the manifest commit.
	steps := []int{-1, 0, 1, 2, 3}
	for iter := 0; iter < 25; iter++ {
		step := steps[iter%len(steps)]
		add(fmt.Sprintf("iter %d poi", iter), float64(iter%6), float64(iter%5))
		restore := armShardCrash(step)
		if step >= 1 {
			// An add acknowledged between the steps: shard 0 has saved and
			// rotated its log, the manifest that would pin it there never
			// commits.
			crash := saveStepHook
			saveStepHook = func(i int) error {
				if i == step {
					p := pointOnShard(s, 0)
					add(fmt.Sprintf("iter %d between steps poi", iter), p[0], p[1])
				}
				return crash(i)
			}
		}
		saveErr := s.Save()
		restore()
		if saveErr == nil {
			t.Fatalf("iter %d step %d: crashed save reported success", iter, step)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", iter, err)
		}
		s, err = Open(dir)
		if err != nil {
			t.Fatalf("iter %d step %d: reopen after crash: %v", iter, step, err)
		}
		want := append([]string(nil), oracle...)
		sort.Strings(want)
		if got := shardedLiveTexts(t, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d step %d: recovered %d objects, acknowledged %d",
				iter, step, len(got), len(want))
		}
		res, err := s.TopK(len(want)+4, []float64{3, 3}, "poi")
		if err != nil {
			t.Fatalf("iter %d: query after recovery: %v", iter, err)
		}
		if len(res) != len(want) {
			t.Fatalf("iter %d step %d: query found %d, acknowledged %d", iter, step, len(res), len(want))
		}
	}

	// A clean save then commits everything, and nothing replays.
	if err := s.Save(); err != nil {
		t.Fatalf("clean save after crash loop: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if wi := s.WALInfo(); wi.ReplayedRecords != 0 {
		t.Fatalf("clean save still replayed %d records", wi.ReplayedRecords)
	}
	want := append([]string(nil), oracle...)
	sort.Strings(want)
	if got := shardedLiveTexts(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("clean save content mismatch: %d vs %d", len(got), len(want))
	}
}

// pointOnShard finds a point the engine's partitioner routes to shard i.
func pointOnShard(s *ShardedEngine, i int) []float64 {
	for x := 0.0; ; x++ {
		if s.part.Locate(geo.NewPoint(x, 1)) == i {
			return []float64{x, 1}
		}
	}
}

// TestAckBetweenShardSaveAndManifestSurvives: a sharded Save checkpoints its
// shards one after another and commits their generations in shards.json last.
// An add acknowledged by a shard that has already saved — it is in that
// shard's new log — while the manifest still pins the shard's old generation
// must survive both ways the manifest can fail to follow: a crash before it
// commits, and a Save that fails while the process keeps serving. Recovery
// goes on from the pinned snapshot through every log up to the shard's own
// commit point.
func TestAckBetweenShardSaveAndManifestSurvives(t *testing.T) {
	layouts := map[string]func(t *testing.T, dir string) *ShardedEngine{
		"nested-2": func(t *testing.T, dir string) *ShardedEngine {
			s, err := NewDurable(walShardConfig(), dir, Options{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"flat-1": func(t *testing.T, dir string) *ShardedEngine {
			e, err := spatialkeyword.NewDurableEngine(walShardConfig(), dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, create := range layouts {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := create(t, dir)
			for i := 0; i < 8; i++ {
				if _, err := s.Add([]float64{float64(i), 1}, fmt.Sprintf("base %d poi", i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Save(); err != nil { // shards.json now pins every shard
				t.Fatal(err)
			}
			// The save dies before the manifest commit, after an add to
			// shard 0 — which saved first — was acknowledged.
			errCrash := errors.New("simulated crash")
			manifestStep := s.NumShards()
			var between uint64
			saveStepHook = func(step int) error {
				if step < manifestStep {
					return nil
				}
				var err error
				if between, err = s.Add(pointOnShard(s, 0), "between the steps poi"); err != nil {
					t.Fatal(err)
				}
				return errCrash
			}
			err := s.Save()
			saveStepHook = nil
			if !errors.Is(err, errCrash) {
				t.Fatalf("Save = %v, want the simulated crash", err)
			}
			// The process keeps serving after the failed save.
			after, err := s.Add(pointOnShard(s, 0), "after the failed save poi")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			for round := 0; round < 2; round++ { // the second open finds what the first one repinned
				s, err = Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range []uint64{between, after} {
					if _, err := s.Get(id); err != nil {
						t.Fatalf("open %d: acknowledged object %d: %v", round, id, err)
					}
				}
				if got := s.Stats().Objects; got != 10 {
					t.Fatalf("open %d: %d objects, want 10", round, got)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			// The next save and reopen find nothing left to replay.
			if s, err = Open(dir); err != nil {
				t.Fatal(err)
			}
			if err := s.Save(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(dir); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if wi := s.WALInfo(); wi.ReplayedRecords != 0 || s.Stats().Objects != 10 {
				t.Fatalf("after a clean save: replayed %d records, %d objects", wi.ReplayedRecords, s.Stats().Objects)
			}
		})
	}
}

// TestShardedWALDegradedOpenServesHealthyShards: when one shard's storage
// is corrupt at open time, a WAL-enabled sharded engine opens degraded —
// the dead shard is out of rotation (sticky) while the healthy shards keep
// serving — instead of refusing to open at all.
func TestShardedWALDegradedOpenServesHealthyShards(t *testing.T) {
	checkGoroutines(t)
	dir := t.TempDir()
	cfg := walShardConfig()
	cfg.Checksums = true
	s, err := NewDurable(cfg, dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.Add([]float64{float64(i % 6), float64(i / 6)}, fmt.Sprintf("deg %d poi", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	victims := len(s.shards[1].globals)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Rot shard 1's object file and its snapshots: every data block (the
	// raw device header in the first 4 KiB is left intact so the files
	// still open as file disks — the checksummed reads are what fail).
	matches, err := filepath.Glob(filepath.Join(shardDir(dir, false, 1), "objects*"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no object files to corrupt: %v (%d)", err, len(matches))
	}
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 4096; i < len(data); i++ {
			data[i] ^= 0xFF
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatalf("degraded open refused: %v", err)
	}
	defer s.Close()
	if s.shards[1].eng != nil {
		t.Fatal("corrupt shard opened an engine")
	}
	if h := s.Health(); h[1].Healthy || !h[0].Healthy || !h[2].Healthy {
		t.Fatalf("health after degraded open: %+v", h)
	}
	res, st, err := s.TopKWithStats(40, []float64{3, 3}, "poi")
	if err != nil {
		t.Fatalf("query on degraded engine: %v", err)
	}
	if !st.Degraded {
		t.Fatal("degraded open did not mark queries degraded")
	}
	if len(res) != 30-victims {
		t.Fatalf("degraded query found %d, want %d (30 minus %d on the dead shard)",
			len(res), 30-victims, victims)
	}
	// The dead shard stays down: ResetHealth cannot revive a shard that
	// never opened, and Save refuses to snapshot around it.
	if n := s.ResetHealth(); n != 0 {
		t.Fatalf("ResetHealth revived %d shards, want 0", n)
	}
	if err := s.Save(); !errors.Is(err, ErrUnhealthyShard) {
		t.Fatalf("Save on degraded-open engine: got %v, want ErrUnhealthyShard", err)
	}
}

// fromObjectStore reports whether the running device operation was issued by
// the object store. A shard's fault hook is installed on all of its devices
// at once; this is how a hook tells object-file writes from the index's and
// the log's.
func fromObjectStore() bool {
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, "spatialkeyword/internal/objstore.") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestKillDuringTailRewriteRecovers kills the object file's write path: each
// iteration makes the shards' object-file writes fail from a rotating
// operation on — the Sync that allocates a shard's open block or the one
// that rewrites it, run by a flush after every add — then tears the working
// objects.db's last block, as a crash in the middle of that rewrite would,
// and reopens. Every add that returned nil must be back, whether or not its
// flush failed. An add that failed after its record reached the log (the
// object write came after the append) may be back, and if it is, it stays;
// nothing else may appear.
func TestKillDuringTailRewriteRecovers(t *testing.T) {
	for _, checksums := range []bool{false, true} {
		t.Run(fmt.Sprintf("checksums=%v", checksums), func(t *testing.T) {
			checkGoroutines(t)
			cfg := walShardConfig()
			cfg.Checksums = checksums
			dir := t.TempDir()
			s, err := NewDurable(cfg, dir, Options{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			acked := map[string]bool{}
			failed := map[string]bool{} // since the last reopen
			failures := 0
			for iter := 0; iter < 100; iter++ {
				if iter%10 == 5 {
					// A checkpoint now and then, so later reopens start from
					// a sealed, non-empty object file and not only the log.
					if err := s.Save(); err != nil {
						t.Fatalf("iter %d: save: %v", iter, err)
					}
				}
				n := iter%4 + 1
				var writes int
				fault := func(op storage.Op, id storage.BlockID) error {
					if op != storage.OpWrite || !fromObjectStore() {
						return nil
					}
					writes++
					if writes >= n {
						return &storage.FaultError{Kind: storage.KindWriteError, Op: op, Block: id}
					}
					return nil
				}
				for i := 0; i < s.NumShards(); i++ {
					if !s.InjectShardFault(i, fault) {
						t.Fatal("InjectShardFault refused")
					}
				}
				for j := 0; j < 3; j++ {
					text := fmt.Sprintf("iter %d rec %d poi", iter, j)
					if _, err := s.Add([]float64{float64(iter % 13), float64(j)}, text); err == nil {
						acked[text] = true
					} else if storage.IsIOFault(err) {
						failed[text] = true
						failures++
					} else {
						t.Fatalf("iter %d: add failed without fault provenance: %v", iter, err)
					}
					// An add is indexed, and its row written, at the shard's
					// next flush. A fault there degrades the shard; the add
					// stays acknowledged, because it is in the log.
					if err := s.Flush(); err != nil {
						t.Fatalf("iter %d: flush: %v", iter, err)
					}
				}
				for _, h := range s.Health() {
					if !h.Healthy {
						failures++
					}
				}
				for i := 0; i < s.NumShards(); i++ {
					s.InjectShardFault(i, nil)
				}
				// Simulated process death, then the torn rewrite on disk.
				if err := s.Close(); err != nil {
					t.Fatalf("iter %d: close: %v", iter, err)
				}
				for i := 0; i < s.NumShards(); i++ {
					tearLastBlock(t, filepath.Join(shardDir(dir, false, i), "objects.db"))
				}
				if s, err = Open(dir); err != nil {
					t.Fatalf("iter %d: reopen after object-file fault: %v", iter, err)
				}
				got := shardedLiveTexts(t, s)
				present := map[string]bool{}
				for _, text := range got {
					present[text] = true
					if !acked[text] && !failed[text] {
						t.Fatalf("iter %d: recovered %q, which no add wrote", iter, text)
					}
				}
				for text := range acked {
					if !present[text] {
						t.Fatalf("iter %d: acknowledged %q lost (%d recovered, %d acknowledged)",
							iter, text, len(got), len(acked))
					}
				}
				for text := range failed {
					// Replayed from the log, a failed add is as durable as an
					// acknowledged one; missing now, it never comes back.
					if present[text] {
						acked[text] = true
					}
					delete(failed, text)
				}
				res, err := s.TopK(len(got)+1, []float64{5, 5}, "poi")
				if err != nil {
					t.Fatalf("iter %d: query after recovery: %v", iter, err)
				}
				if len(res) != len(got) {
					t.Fatalf("iter %d: query found %d objects, scan %d", iter, len(res), len(got))
				}
			}
			if failures == 0 {
				t.Fatal("no add or flush failed: the fault never reached the object file")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// tearLastBlock overwrites the second half of a file's last block with
// garbage: a write that stopped halfway.
func tearLastBlock(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) - storage.DefaultBlockSize/2; i < len(data); i++ {
		data[i] ^= 0xA5
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
