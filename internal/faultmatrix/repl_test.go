package faultmatrix

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/repl"
	"spatialkeyword/internal/shard"
)

// The replication row of the matrix: the faults here live on the wire and
// in process lifetimes, not in a block device, so they are injected by an
// HTTP middleware between follower and leader (torn and corrupt response
// bodies, delays) and by crash-imaging the follower's directory mid-replay.
// The hardening contract is the same shape as the storage rows: every fault
// is detected, never silently absorbed, and the follower converges back to
// the leader's exact state.

// faultProxy wraps the leader's /repl handler and mutates /repl/log
// responses according to mode for the first `remaining` non-empty bodies.
type faultProxy struct {
	h http.Handler

	mu        sync.Mutex
	mode      string // "truncate", "corrupt", "delay"
	remaining int
	delay     time.Duration
	injected  int
}

func (p *faultProxy) arm(mode string, n int, delay time.Duration) {
	p.mu.Lock()
	p.mode, p.remaining, p.delay = mode, n, delay
	p.mu.Unlock()
}

func (p *faultProxy) injections() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected
}

func (p *faultProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != repl.LogPath {
		p.h.ServeHTTP(w, r)
		return
	}
	p.mu.Lock()
	mode, delay := p.mode, p.delay
	armed := p.remaining > 0
	p.mu.Unlock()

	if armed && mode == "delay" {
		p.mu.Lock()
		p.remaining--
		p.injected++
		p.mu.Unlock()
		time.Sleep(delay)
		p.h.ServeHTTP(w, r)
		return
	}

	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if armed && rec.Code == http.StatusOK && len(body) > 16 {
		p.mu.Lock()
		switch mode {
		case "truncate":
			// Cut mid-frame: the follower must see a partial frame, not a
			// short-but-valid stream.
			body = body[:len(body)-7]
			p.remaining--
			p.injected++
		case "corrupt":
			// Flip one payload byte; the frame CRC must catch it.
			body = append([]byte(nil), body...)
			body[len(body)/2] ^= 0x20
			p.remaining--
			p.injected++
		}
		p.mu.Unlock()
	}
	for k, vs := range rec.Header() {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.Code)
	w.Write(body) //nolint:errcheck // best-effort response write
}

// newReplLeader builds a WAL leader engine — a single engine's directory,
// served in place as one flat shard — with a fault proxy in front of its
// replication handler.
func newReplLeader(t *testing.T) (*shard.ShardedEngine, *repl.Leader, *faultProxy, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	single, err := spatialkeyword.NewDurableEngine(spatialkeyword.Config{SignatureBytes: 16, WAL: true}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}
	return serveReplLeader(t, dir)
}

// serveReplLeader opens the engine directory dir and mounts a replication
// leader for it behind a fault proxy.
func serveReplLeader(t *testing.T, dir string) (*shard.ShardedEngine, *repl.Leader, *faultProxy, *httptest.Server) {
	t.Helper()
	e, err := shard.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() }) //nolint:errcheck // test teardown
	l := repl.NewLeader(e)
	proxy := &faultProxy{h: l.Handler()}
	srv := httptest.NewServer(proxy)
	t.Cleanup(srv.Close)
	return e, l, proxy, srv
}

func replAddN(t *testing.T, e *shard.ShardedEngine, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		text := fmt.Sprintf("poi %d fault matrix row with some padding text", i)
		if _, err := e.Add([]float64{float64(i % 16), float64(i / 16)}, text); err != nil {
			t.Fatal(err)
		}
	}
}

// replConverged asserts the follower serves exactly the leader's live set.
func replConverged(t *testing.T, e *shard.ShardedEngine, l *repl.Leader, f *repl.Follower) {
	t.Helper()
	if err := f.WaitFor(l.PositionToken(), 10*time.Second); err != nil {
		t.Fatalf("follower never converged: %v", err)
	}
	if got, want := f.Stats().Objects, e.Stats().Objects; got != want {
		t.Fatalf("follower holds %d objects, leader %d", got, want)
	}
	n := e.Stats().Objects
	want, err := e.TopK(n+1, []float64{4, 2}, "poi")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := f.TopKWithStats(n+1, []float64{4, 2}, "poi")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("follower query found %d objects, leader %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Object.ID != want[i].Object.ID || got[i].Dist != want[i].Dist {
			t.Fatalf("result %d diverged: follower %+v, leader %+v", i, got[i], want[i])
		}
	}
}

// TestReplStreamCutMidFrame tears /repl/log bodies mid-frame: the follower
// must detect the partial frame, re-request from its acknowledged position,
// and converge without applying a torn record.
func TestReplStreamCutMidFrame(t *testing.T) {
	checkNoGoroutineLeak(t)
	e, l, proxy, srv := newReplLeader(t)
	replAddN(t, e, 0, 30)
	proxy.arm("truncate", 3, 0)

	f, err := repl.OpenFollower(t.TempDir(), srv.URL, repl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	replConverged(t, e, l, f)
	if proxy.injections() == 0 {
		t.Fatal("fault never injected: the scenario did not run")
	}
	if f.Status().Resyncs == 0 {
		t.Fatal("torn stream never counted as a resync")
	}
}

// TestReplCorruptFrameOnWire flips a byte inside a shipped frame: the CRC
// must reject it and the follower must re-fetch, never applying the
// corrupted record.
func TestReplCorruptFrameOnWire(t *testing.T) {
	checkNoGoroutineLeak(t)
	e, l, proxy, srv := newReplLeader(t)
	replAddN(t, e, 0, 30)
	proxy.arm("corrupt", 3, 0)

	f, err := repl.OpenFollower(t.TempDir(), srv.URL, repl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	replConverged(t, e, l, f)
	if proxy.injections() == 0 {
		t.Fatal("fault never injected: the scenario did not run")
	}
	if f.Status().Resyncs == 0 {
		t.Fatal("corrupt frame never counted as a resync")
	}
}

// TestReplLeaderRotationDuringTail rotates the leader's log while the
// follower is mid-drain: the follower must finish the old generation,
// checkpoint locally, and continue in the new one — without a second
// snapshot bootstrap.
func TestReplLeaderRotationDuringTail(t *testing.T) {
	checkNoGoroutineLeak(t)
	e, l, _, srv := newReplLeader(t)
	replAddN(t, e, 0, 40)

	f, err := repl.OpenFollower(t.TempDir(), srv.URL, repl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test teardown

	for round := 0; round < 3; round++ {
		replAddN(t, e, 40+20*round, 10)
		if err := e.Save(); err != nil {
			t.Fatal(err)
		}
		replAddN(t, e, 50+20*round, 10)
		// Drain before the next rotation: the leader retains only one
		// previous generation, so a follower two rotations behind would be
		// forced into a (legitimate) re-bootstrap — not this scenario.
		if err := f.WaitFor(l.PositionToken(), 10*time.Second); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	replConverged(t, e, l, f)
	st := f.Status()
	if st.Snapshots != 1 {
		t.Fatalf("rotation forced %d snapshots, want only the bootstrap", st.Snapshots)
	}
	if gen := e.ShardDurability()[0].Generation; st.Streams[0].Gen != gen {
		t.Fatalf("follower at generation %d, leader at %d", st.Streams[0].Gen, gen)
	}
}

// TestReplSlowFollower delays every log response: the follower lags but
// stays connected, reports the lag, and still converges.
func TestReplSlowFollower(t *testing.T) {
	checkNoGoroutineLeak(t)
	e, l, proxy, srv := newReplLeader(t)
	replAddN(t, e, 0, 20)
	proxy.arm("delay", 50, 20*time.Millisecond)

	f, err := repl.OpenFollower(t.TempDir(), srv.URL, repl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	replAddN(t, e, 20, 20)
	replConverged(t, e, l, f)
	st := f.Status()
	if st.LagRecords != 0 {
		t.Fatalf("converged follower still reports %d lagging records", st.LagRecords)
	}
	if st.Resyncs != 0 || st.Snapshots != 1 {
		t.Fatalf("slowness alone triggered recovery: %+v", st)
	}
}

// copyTree snapshots a directory — the crash image. It runs while the
// follower is live, so it may capture torn, partially written files; that
// is the point: the image is what a power cut mid-replay would leave.
func copyTree(dst, src string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// TestReplFollowerCrashMidReplay kills the follower mid-replay (a crash
// image of its directory taken while the tail is applying) and restarts
// from the image: recovery must replay the local log and resume the
// stream, converging to the leader.
func TestReplFollowerCrashMidReplay(t *testing.T) {
	checkNoGoroutineLeak(t)
	e, l, _, srv := newReplLeader(t)
	replAddN(t, e, 0, 50)

	fdir := filepath.Join(t.TempDir(), "replica")
	f, err := repl.OpenFollower(fdir, srv.URL, repl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Kill mid-replay: image the directory while the tail is running.
	time.Sleep(10 * time.Millisecond)
	image := filepath.Join(t.TempDir(), "crash-image")
	if err := copyTree(image, fdir); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(fdir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(image, fdir); err != nil {
		t.Fatal(err)
	}

	replAddN(t, e, 50, 20)
	f, err = repl.OpenFollower(fdir, srv.URL, repl.Options{})
	if err != nil {
		t.Fatalf("reopen from crash image: %v", err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	replConverged(t, e, l, f)
}

// TestReplKillFollowerLoop is the replication acceptance loop: 100
// iterations of write → kill the follower at an arbitrary moment
// (crash-imaging its directory while live) → restart from the image. Every
// restart must recover from its own WAL and resume the stream; the final
// state must equal the leader's exactly.
func TestReplKillFollowerLoop(t *testing.T) {
	checkNoGoroutineLeak(t)
	e, l, _, srv := newReplLeader(t)
	replAddN(t, e, 0, 10)

	base := t.TempDir()
	fdir := filepath.Join(base, "replica")
	var f *repl.Follower
	var err error
	for iter := 0; iter < 100; iter++ {
		replAddN(t, e, 10+3*iter, 3)
		f, err = repl.OpenFollower(fdir, srv.URL, repl.Options{})
		if err != nil {
			t.Fatalf("iter %d: open: %v", iter, err)
		}
		// Vary the kill point across iterations so crashes land during
		// bootstrap, mid-batch, and while idle.
		time.Sleep(time.Duration(iter%7) * time.Millisecond)
		image := filepath.Join(base, fmt.Sprintf("image-%d", iter))
		if err := copyTree(image, fdir); err != nil {
			t.Fatalf("iter %d: image: %v", iter, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", iter, err)
		}
		if err := os.RemoveAll(fdir); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(image, fdir); err != nil {
			t.Fatal(err)
		}
	}

	f, err = repl.OpenFollower(fdir, srv.URL, repl.Options{})
	if err != nil {
		t.Fatalf("final open: %v", err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	replConverged(t, e, l, f)
}

// replSameRows asserts the follower stores exactly the leader's rows — IDs,
// points, text and deletions, not only what one query shows. A deleted row's
// text is readable through no Reader, but it still counts in the corpus
// statistics ranked idf is computed from: deleted holds each deleted row's
// text, saved before it was deleted, and the follower's document count and
// the frequency of every word of every row must equal the leader's.
func replSameRows(t *testing.T, e *shard.ShardedEngine, f *repl.Follower, deleted map[uint64]string) {
	t.Helper()
	rows := func(r spatialkeyword.Reader) (out []string) {
		for id := uint64(0); id < uint64(r.NumObjects()); id++ {
			o, err := r.Get(id)
			if err != nil && !errors.Is(err, spatialkeyword.ErrDeleted) {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%d: %d %v %q deleted=%v", id, o.ID, o.Point, o.Text, isDeleted(r, id)))
		}
		return out
	}
	if got, want := rows(f), rows(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower rows differ from the leader's:\n got %q\nwant %q", got, want)
	}

	var texts []string
	for id := uint64(0); id < uint64(e.NumObjects()); id++ {
		if !isDeleted(e, id) {
			o, err := e.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			texts = append(texts, o.Text)
		} else if text, ok := deleted[id]; ok {
			texts = append(texts, text)
		} else {
			t.Fatalf("row %d is deleted but its text was not saved", id)
		}
	}
	lc, fc := e.Corpus(), f.Corpus()
	if lc.NumDocs != fc.NumDocs {
		t.Fatalf("follower counts %d documents, leader %d", fc.NumDocs, lc.NumDocs)
	}
	for _, text := range texts {
		for _, w := range lc.Analyzer.Unique(text) {
			if got, want := fc.DocFreq(w), lc.DocFreq(w); got != want {
				t.Fatalf("follower counts %q in %d documents, leader in %d", w, got, want)
			}
		}
	}
}

// deletedText returns the text of each row a copy of the engine directory
// dir holds deleted, read through Engine.Scan, the one read that returns it.
func deletedText(t *testing.T, dir string) map[uint64]string {
	t.Helper()
	cp := filepath.Join(t.TempDir(), "dump")
	if err := copyTree(cp, dir); err != nil {
		t.Fatal(err)
	}
	eng, err := spatialkeyword.OpenEngine(cp)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close() //nolint:errcheck // test teardown
	var all []spatialkeyword.Object
	if err := eng.Scan(func(o spatialkeyword.Object) error {
		all = append(all, o)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]string)
	for _, o := range all {
		if isDeleted(eng, o.ID) {
			out[o.ID] = o.Text
		}
	}
	return out
}

// TestReplFlatLeaderFromParentDirectory: the leader serves, in place, a
// directory the parent build's single engine wrote (testdata/compat) — its log
// holds adds logged without global IDs. A fresh replica bootstraps into the
// same flat layout and converges byte for byte on what replication copies
// (the snapshot generation) and row for row on the rest; a replica directory
// the parent build wrote resumes from its watermark without a snapshot; the
// replica follows a rotation, restarts from its own log, and re-bootstraps —
// flat again — when it was left two rotations behind.
func TestReplFlatLeaderFromParentDirectory(t *testing.T) {
	checkNoGoroutineLeak(t)
	const fixture = "../../testdata/compat/single-ae80bff"
	ldir := filepath.Join(t.TempDir(), "leader")
	if err := copyTree(ldir, fixture); err != nil {
		t.Fatal(err)
	}
	e, l, _, srv := serveReplLeader(t, ldir)

	// A replica the parent build left behind is a copy of its leader's
	// directory at some watermark: it is adopted the same way and resumes.
	olddir := filepath.Join(t.TempDir(), "old-replica")
	if err := copyTree(olddir, fixture); err != nil {
		t.Fatal(err)
	}
	old, err := repl.OpenFollower(olddir, srv.URL, repl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fdir := filepath.Join(t.TempDir(), "replica")
	f, err := repl.OpenFollower(fdir, srv.URL, repl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { f.Close() }() //nolint:errcheck // test teardown

	replAddN(t, e, 100, 10)
	deleted := deletedText(t, fixture)
	nine, err := e.Get(9)
	if err != nil {
		t.Fatal(err)
	}
	deleted[9] = nine.Text
	if err := e.Delete(9); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*repl.Follower{"parent-written": old, "fresh": f} {
		if err := r.WaitFor(l.PositionToken(), 10*time.Second); err != nil {
			t.Fatalf("%s replica never converged: %v", name, err)
		}
		replSameRows(t, e, r, deleted)
	}
	if st := old.Status(); st.Snapshots != 0 || st.Resyncs != 0 {
		t.Fatalf("parent-written replica did not resume: %+v", st)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if st := f.Status(); st.Snapshots != 1 || len(st.Streams) != 1 {
		t.Fatalf("fresh replica: %+v", st)
	}
	// Flat like its leader, and the generation it copied is the leader's.
	if _, err := os.Stat(filepath.Join(fdir, "shard-0000")); !os.IsNotExist(err) {
		t.Fatalf("replica of a flat leader has a shard subdirectory: %v", err)
	}
	index, manifest := spatialkeyword.SnapshotFileNames(2)
	objects, err := spatialkeyword.SnapshotObjectsName(filepath.Join(ldir, manifest))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{objects, index, manifest} {
		want, err := os.ReadFile(filepath.Join(ldir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(fdir, name)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("replica's %s differs from the leader's (%v)", name, err)
		}
	}

	// A rotation is followed, not re-bootstrapped.
	if err := e.Save(); err != nil {
		t.Fatal(err)
	}
	replAddN(t, e, 200, 10)
	replConverged(t, e, l, f)
	replSameRows(t, e, f, deleted)
	if st := f.Status(); st.Snapshots != 1 || st.Streams[0].Gen != 3 {
		t.Fatalf("after the leader's rotation: %+v", st)
	}

	// Restart: local recovery, then the tail resumes.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	replAddN(t, e, 300, 5)
	if f, err = repl.OpenFollower(fdir, srv.URL, repl.Options{}); err != nil {
		t.Fatal(err)
	}
	replConverged(t, e, l, f)
	replSameRows(t, e, f, deleted)
	if st := f.Status(); st.Snapshots != 0 {
		t.Fatalf("restart bootstrapped: %+v", st)
	}

	// Left two rotations behind, the replica rebuilds from a fresh snapshot.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		replAddN(t, e, 400+10*round, 5)
		if err := e.Save(); err != nil {
			t.Fatal(err)
		}
	}
	if f, err = repl.OpenFollower(fdir, srv.URL, repl.Options{}); err != nil {
		t.Fatal(err)
	}
	replConverged(t, e, l, f)
	replSameRows(t, e, f, deleted)
	if st := f.Status(); st.Snapshots == 0 {
		t.Fatalf("expected a re-bootstrap: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(fdir, "shard-0000")); !os.IsNotExist(err) {
		t.Fatalf("re-bootstrapped replica is not flat: %v", err)
	}
}

// isDeleted reports whether row id of r no longer resolves to a live row:
// Rows passes it over as deleted or, below NumObjects, as never stored.
func isDeleted(r spatialkeyword.Reader, id uint64) bool {
	live := false
	err := r.Rows([]uint64{id}, nil, func(int, []float64, []string) { live = true })
	return err == nil && !live
}
