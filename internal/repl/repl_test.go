package repl

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/wal"
)

// fastOpts keeps test followers snappy.
func fastOpts() Options {
	return Options{PollWait: 50 * time.Millisecond, RetryInterval: 10 * time.Millisecond}
}

// newLeaderEngine starts a durable WAL engine in dir — a single engine's
// directory, adopted in place as one flat shard — with a replication leader
// mounted on an httptest server.
func newLeaderEngine(t *testing.T, dir string) (*shard.ShardedEngine, *Leader, *httptest.Server) {
	t.Helper()
	single, err := spatialkeyword.NewDurableEngine(spatialkeyword.Config{WAL: true}, dir)
	if err != nil {
		t.Fatalf("NewDurableEngine: %v", err)
	}
	if err := single.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	e, err := shard.Open(dir)
	if err != nil {
		t.Fatalf("shard.Open: %v", err)
	}
	t.Cleanup(func() { e.Close() }) //nolint:errcheck // test teardown
	l := NewLeader(e)
	srv := httptest.NewServer(l.Handler())
	t.Cleanup(srv.Close)
	return e, l, srv
}

func addN(t *testing.T, e *shard.ShardedEngine, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		x := float64(i % 10)
		y := float64(i / 10)
		if _, err := e.Add([]float64{x, y}, fmt.Sprintf("object %d coffee pizza%d", i, i%3)); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
}

// drain waits until the follower has applied every write the leader has
// acknowledged so far.
func drain(t *testing.T, f *Follower, l *Leader) {
	t.Helper()
	if err := f.WaitFor(l.PositionToken(), 10*time.Second); err != nil {
		t.Fatalf("WaitFor: %v", err)
	}
}

// sameTopK asserts the follower answers a query identically to the leader.
func sameTopK(t *testing.T, lead, repl interface {
	TopKWithStats(int, []float64, ...string) ([]spatialkeyword.Result, spatialkeyword.QueryStats, error)
}, k int, point []float64, kws ...string) {
	t.Helper()
	want, _, err := lead.TopKWithStats(k, point, kws...)
	if err != nil {
		t.Fatalf("leader TopK: %v", err)
	}
	got, _, err := repl.TopKWithStats(k, point, kws...)
	if err != nil {
		t.Fatalf("follower TopK: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("follower returned %d results, leader %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Object.ID != want[i].Object.ID || got[i].Dist != want[i].Dist {
			t.Fatalf("result %d: follower %+v, leader %+v", i, got[i], want[i])
		}
	}
}

func TestFollowerBootstrapAndTail(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	e, l, srv := newLeaderEngine(t, ldir)
	addN(t, e, 0, 25)

	f, err := OpenFollower(fdir, srv.URL, fastOpts())
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	drain(t, f, l)

	sameTopK(t, e, f, 5, []float64{3, 1}, "coffee")
	obj, err := f.Get(7)
	if err != nil {
		t.Fatalf("follower Get: %v", err)
	}
	if obj.ID != 7 {
		t.Fatalf("follower Get(7) returned ID %d", obj.ID)
	}

	// Writes keep streaming after the bootstrap.
	addN(t, e, 25, 25)
	if err := e.Delete(3); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	drain(t, f, l)
	sameTopK(t, e, f, 10, []float64{5, 2}, "pizza1")
	if _, err := f.Get(3); err == nil {
		t.Fatalf("follower still serves deleted object 3")
	}
	if f.Stats().Objects != e.Stats().Objects {
		t.Fatalf("follower stats %+v, leader %+v", f.Stats(), e.Stats())
	}
}

func TestFollowerIsReadOnly(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	e, l, srv := newLeaderEngine(t, ldir)
	addN(t, e, 0, 3)
	f, err := OpenFollower(fdir, srv.URL, fastOpts())
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	drain(t, f, l)

	if _, err := f.Add([]float64{0, 0}, "x"); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("Add on replica: %v", err)
	}
	if err := f.Delete(0); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("Delete on replica: %v", err)
	}
	if err := f.Save(); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("Save on replica: %v", err)
	}
}

func TestFollowerRotationHandoff(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	e, l, srv := newLeaderEngine(t, ldir)
	addN(t, e, 0, 10)

	f, err := OpenFollower(fdir, srv.URL, fastOpts())
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	drain(t, f, l)

	// Rotate twice with traffic in between; the follower must follow each
	// generation handoff without re-bootstrapping.
	for round := 0; round < 2; round++ {
		if err := e.Save(); err != nil {
			t.Fatalf("leader Save: %v", err)
		}
		addN(t, e, 10+20*round, 20)
		drain(t, f, l)
	}
	st := f.Status()
	if st.Snapshots != 1 {
		t.Fatalf("expected exactly the bootstrap snapshot, got %d", st.Snapshots)
	}
	if want := e.ShardDurability()[0].Generation; st.Streams[0].Gen != want {
		t.Fatalf("follower at generation %d, leader at %d", st.Streams[0].Gen, want)
	}
	sameTopK(t, e, f, 8, []float64{4, 3}, "coffee")
}

func TestFollowerRestartResumesFromWatermark(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	e, l, srv := newLeaderEngine(t, ldir)
	addN(t, e, 0, 15)

	f, err := OpenFollower(fdir, srv.URL, fastOpts())
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	drain(t, f, l)
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// More traffic while the follower is down; the restart must resume the
	// tail from its durable watermark — no second bootstrap.
	addN(t, e, 15, 15)
	f, err = OpenFollower(fdir, srv.URL, fastOpts())
	if err != nil {
		t.Fatalf("reopen follower: %v", err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	drain(t, f, l)
	if got := f.Status().Snapshots; got != 0 {
		t.Fatalf("restart bootstrapped %d snapshots, want local recovery", got)
	}
	sameTopK(t, e, f, 6, []float64{2, 1}, "pizza0")
}

func TestFollowerRebootstrapsWhenLeftBehind(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	e, l, srv := newLeaderEngine(t, ldir)
	addN(t, e, 0, 10)

	f, err := OpenFollower(fdir, srv.URL, fastOpts())
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	drain(t, f, l)
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Two rotations while the follower is down: its generation is no longer
	// tailed (the leader only keeps the previous one), so the restart gets
	// 410 and must rebuild from a fresh snapshot.
	for round := 0; round < 2; round++ {
		addN(t, e, 10+5*round, 5)
		if err := e.Save(); err != nil {
			t.Fatalf("leader Save: %v", err)
		}
	}
	addN(t, e, 20, 5)

	f, err = OpenFollower(fdir, srv.URL, fastOpts())
	if err != nil {
		t.Fatalf("reopen follower: %v", err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	drain(t, f, l)
	st := f.Status()
	if st.Snapshots == 0 {
		t.Fatalf("expected a re-bootstrap, got none (status %+v)", st)
	}
	sameTopK(t, e, f, 10, []float64{3, 1}, "coffee")
	if f.Stats().Objects != e.Stats().Objects {
		t.Fatalf("follower stats %+v, leader %+v", f.Stats(), e.Stats())
	}
}

// TestCloseDuringResyncReturns: a follower whose resync is stuck in a
// snapshot download — the leader answers the log with 410 and never finishes
// the snapshot — still closes promptly, and leaves no goroutine behind.
func TestCloseDuringResyncReturns(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	e, l, srv := newLeaderEngine(t, ldir)
	addN(t, e, 0, 5)
	f, err := OpenFollower(fdir, srv.URL, fastOpts())
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	drain(t, f, l)
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	before := runtime.NumGoroutine()
	asked, release := make(chan struct{}, 1), make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case LogPath:
			w.WriteHeader(http.StatusGone)
		case SnapshotPath:
			select {
			case asked <- struct{}{}:
			default:
			}
			select {
			case <-r.Context().Done():
			case <-release:
			}
		}
	}))
	f, err = OpenFollower(fdir, stub.URL, fastOpts())
	if err != nil {
		t.Fatalf("reopen follower: %v", err)
	}
	select {
	case <-asked:
	case <-time.After(10 * time.Second):
		t.Fatal("the follower never started a resync")
	}
	closed := make(chan error, 1)
	go func() { closed <- f.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("Close is still waiting for the snapshot download after 2s")
		close(release)
		<-closed
	}
	stub.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPositionTokenRoundTrip(t *testing.T) {
	ps := []Position{{Gen: 3, Seq: 17}, {Gen: 1, Seq: 0}}
	tok := EncodePositions(ps)
	got, err := ParsePositions(tok)
	if err != nil {
		t.Fatalf("ParsePositions(%q): %v", tok, err)
	}
	if len(got) != len(ps) || got[0] != ps[0] || got[1] != ps[1] {
		t.Fatalf("round trip %q -> %+v, want %+v", tok, got, ps)
	}
	for _, bad := range []string{"", "3", "3.", "x.1", "1.y", "1.2;;"} {
		if _, err := ParsePositions(bad); err == nil {
			t.Errorf("ParsePositions(%q) accepted", bad)
		}
	}
	if !(Position{Gen: 2, Seq: 0}).AtLeast(Position{Gen: 1, Seq: 99}) {
		t.Fatalf("newer generation must dominate")
	}
	if (Position{Gen: 1, Seq: 5}).AtLeast(Position{Gen: 1, Seq: 6}) {
		t.Fatalf("5 is not at least 6")
	}
}

func TestDecodeFramesContinuity(t *testing.T) {
	recs := []wal.Record{
		{Seq: 4, Op: wal.OpAdd, ID: 0, Tag: 0, Point: []float64{1, 2}, Text: "a"},
		{Seq: 5, Op: wal.OpDelete, ID: 0},
	}
	body := encodeFrames(recs)

	got, err := decodeFrames(body, 3)
	if err != nil {
		t.Fatalf("decodeFrames: %v", err)
	}
	if len(got) != 2 || got[0].Seq != 4 || got[1].Seq != 5 || got[0].Text != "a" {
		t.Fatalf("decoded %+v", got)
	}

	// A gap (starting after the wrong position) is an error, not a skip.
	if _, err := decodeFrames(body, 2); err == nil {
		t.Fatalf("sequence gap accepted")
	}
	// A torn tail is detected.
	if _, err := decodeFrames(body[:len(body)-3], 3); !errors.Is(err, wal.ErrPartialFrame) {
		t.Fatalf("torn frame: %v", err)
	}
	// Corruption is detected.
	bad := append([]byte(nil), body...)
	bad[9] ^= 0x40
	if _, err := decodeFrames(bad, 3); !errors.Is(err, wal.ErrBadFrame) {
		t.Fatalf("corrupt frame: %v", err)
	}
	// Empty body (caught up) is fine.
	if recs, err := decodeFrames(nil, 9); err != nil || len(recs) != 0 {
		t.Fatalf("empty body: %v %v", recs, err)
	}
}
