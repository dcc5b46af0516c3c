package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/obs"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/wal"
)

// ErrReadOnlyReplica is returned by mutation methods on a Follower: all
// writes go to the leader.
var ErrReadOnlyReplica = errors.New("repl: read-only replica")

// errResync signals the tail loops that the follower's position is no
// longer servable (or its state no longer trustworthy) and it must rebuild
// from a fresh snapshot.
var errResync = errors.New("repl: full resync required")

// ErrResyncing is returned to reads that land while a resync has torn the
// local engine down: a passing state — the read succeeds once the fresh
// snapshot is installed — so a server answers it as "retry", not as a fault.
var ErrResyncing = errors.New("repl: replica resyncing")

// badFrameLimit is how many consecutive undecodable /repl/log responses
// the tail re-requests before escalating to a full resync.
const badFrameLimit = 5

// Options tunes a Follower.
type Options struct {
	// Registry, when set, registers the follower's sk_repl_* metrics.
	Registry *obs.Registry
	// PollWait is the /repl/log long-poll duration (default 500ms).
	PollWait time.Duration
	// RetryInterval is the backoff after a failed leader request
	// (default 100ms).
	RetryInterval time.Duration
}

// followerMetrics are the follower-side replication instruments. All five
// exist whether or not a registry was provided (unregistered instruments
// still work, they just render nowhere).
type followerMetrics struct {
	lagSeconds *obs.FloatGauge
	lagRecords *obs.Gauge
	snapshots  *obs.Counter
	resyncs    *obs.Counter
	connected  *obs.Gauge
}

func newFollowerMetrics(reg *obs.Registry) followerMetrics {
	if reg == nil {
		return followerMetrics{
			lagSeconds: &obs.FloatGauge{},
			lagRecords: &obs.Gauge{},
			snapshots:  &obs.Counter{},
			resyncs:    &obs.Counter{},
			connected:  &obs.Gauge{},
		}
	}
	return followerMetrics{
		lagSeconds: reg.FloatGauge("sk_repl_lag_seconds", "Seconds the follower has continuously been behind the leader (0 when caught up)."),
		lagRecords: reg.Gauge("sk_repl_lag_records", "Log records known shipped by the leader but not yet applied."),
		snapshots:  reg.Counter("sk_repl_snapshots_total", "Snapshot bootstraps completed."),
		resyncs:    reg.Counter("sk_repl_resyncs_total", "Stream re-syncs from the last acknowledged position."),
		connected:  reg.Gauge("sk_repl_follower_connected", "1 while every replication stream to the leader is healthy."),
	}
}

// Follower is a read-only replica: it bootstraps a local copy of the
// leader's engine directory from a snapshot, then tails the leader's WAL
// stream(s), re-logging every record into its own write-ahead log before
// applying it — so a killed and restarted follower recovers by the
// ordinary open path and resumes from its durable watermark.
//
// Reads (Get, TopKWithStats, TopKRanked, the streams, Stats) are served
// from the local replica and are safe concurrently with the tail. Mutations
// return ErrReadOnlyReplica.
type Follower struct {
	dir      string
	base     string
	pollWait time.Duration
	retry    time.Duration
	m        followerMetrics

	// mu guards installed, the local replica: everything that uses it —
	// reads, and the tail's applies and rotations — holds RLock for as long
	// as it does (the engine locks itself, per shard), and a resync holds
	// Lock across teardown and re-bootstrap, during which installed is nil.
	mu        sync.RWMutex
	installed *shard.ShardedEngine

	// mutObserver and sink are forwarded to the engine currently installed,
	// and re-installed across resyncs. See SetMutationObserver and
	// SetMetricsSink.
	mutObserver func(spatialkeyword.MutationEvent)
	sink        obs.Sink

	// posMu guards the position/watermark vectors and the lag metrics
	// derived from them. posChanged is closed and replaced on every
	// update (WaitFor waits on it).
	posMu       sync.Mutex
	positions   []Position
	heads       []Position
	streamOK    []bool
	behindSince time.Time
	posChanged  chan struct{}

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

var _ spatialkeyword.Reader = (*Follower)(nil)

// OpenFollower opens (or bootstraps) a replica of the leader at leaderURL
// in dir and starts tailing. If dir already holds a committed replica, it
// recovers locally — replaying its own WAL — and resumes the stream from
// its durable watermark; otherwise it bootstraps a fresh snapshot.
func OpenFollower(dir, leaderURL string, opts Options) (*Follower, error) {
	f := &Follower{
		dir:        dir,
		base:       strings.TrimRight(leaderURL, "/"),
		pollWait:   opts.PollWait,
		retry:      opts.RetryInterval,
		m:          newFollowerMetrics(opts.Registry),
		posChanged: make(chan struct{}),
	}
	if f.pollWait <= 0 {
		f.pollWait = 500 * time.Millisecond
	}
	if f.retry <= 0 {
		f.retry = 100 * time.Millisecond
	}
	// Every leader request, the bootstraps' included, runs under ctx, so
	// Close's cancel ends one a resync is blocked in.
	f.ctx, f.cancel = context.WithCancel(context.Background())
	if err := f.openOrBootstrap(); err != nil {
		f.cancel()
		return nil, err
	}
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// openOrBootstrap recovers a committed local replica, or bootstraps from
// the leader when there is none (or the local one no longer opens).
func (f *Follower) openOrBootstrap() error {
	if s, err := shard.Open(f.dir); err == nil {
		f.install(s)
		return nil
	}
	return f.bootstrap()
}

// install publishes a freshly opened replica and derives the stream
// positions from its durability watermarks: each stream resumes at
// (generation, durable sequence) — exactly what local recovery replayed.
func (f *Follower) install(s *shard.ShardedEngine) {
	f.installed = s
	s.SetMutationObserver(f.mutObserver)
	s.SetMetricsSink(f.sink)
	ds := s.ShardDurability()
	f.posMu.Lock()
	f.positions = make([]Position, len(ds))
	f.heads = make([]Position, len(ds))
	f.streamOK = make([]bool, len(ds))
	for i, d := range ds {
		f.positions[i] = Position{Gen: d.Generation, Seq: d.DurableSeq}
		f.heads[i] = f.positions[i]
	}
	f.notifyLocked()
	f.posMu.Unlock()
}

// SetMutationObserver installs fn as the mutation observer on the replica's
// underlying engine, and keeps it installed across resyncs — a full
// re-bootstrap tears the engine down and opens a fresh one, and install
// re-attaches the observer to it.
//
// The observer fires for every replicated record the follower applies,
// post-WAL and post-apply, so a fence registry fed from it emits the same
// event stream the leader's does once the follower drains. Caveat: a full
// snapshot re-bootstrap is a state jump, not a mutation stream — standing
// queries tracking result sets across a resync hold stale members and
// should be re-registered. Install before traffic; nil removes it.
func (f *Follower) SetMutationObserver(fn func(spatialkeyword.MutationEvent)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mutObserver = fn
	if f.installed != nil {
		f.installed.SetMutationObserver(fn)
	}
}

// SetMetricsSink installs sink as the replica's query metrics sink (see
// shard.ShardedEngine.SetMetricsSink) and, like SetMutationObserver, keeps
// it installed across resyncs. Install before traffic; nil removes it.
func (f *Follower) SetMetricsSink(sink obs.Sink) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sink = sink
	if f.installed != nil {
		f.installed.SetMetricsSink(sink)
	}
}

// closeEnginesLocked tears the local replica down (mu held).
func (f *Follower) closeEnginesLocked() error {
	if f.installed == nil {
		return nil
	}
	err := f.installed.Close()
	f.installed = nil
	return err
}

// bootstrap wipes dir and rebuilds it from the leader's snapshot. The
// leader's sharded manifest names the layout — one subdirectory per shard, or
// the flat layout of an adopted single-engine directory — and pins every
// shard's generation; each shard is staged at its pin, immutable generation
// files and an empty log, and then the manifest itself commits the bootstrap
// — so a crash mid-bootstrap leaves a directory without a commit point, which
// the next open simply re-bootstraps. Finishes by opening the replica and
// installing it.
func (f *Follower) bootstrap() error {
	manifestBytes, err := f.fetchSnapshot(0, 0, "shards")
	if err != nil {
		return err
	}
	dirs, gens, err := shard.Layout(f.dir, manifestBytes)
	if err != nil {
		return fmt.Errorf("repl: leader shards manifest: %w", err)
	}
	if len(gens) == 0 {
		return fmt.Errorf("repl: leader shards manifest pins no generations")
	}
	if err := os.RemoveAll(f.dir); err != nil {
		return fmt.Errorf("repl: wipe replica dir: %w", err)
	}
	for i, gen := range gens {
		if gen == 0 {
			return fmt.Errorf("repl: shard %d has no committed generation", i)
		}
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			return err
		}
		if err := f.stageStream(dirs[i], i, gen); err != nil {
			return err
		}
	}
	if err := writeFileSync(filepath.Join(f.dir, shard.ManifestFileName), manifestBytes); err != nil {
		return err
	}
	s, err := shard.Open(f.dir)
	if err != nil {
		return fmt.Errorf("repl: open bootstrapped replica: %w", err)
	}
	f.install(s)
	f.m.snapshots.Inc()
	return nil
}

// stageStream downloads one stream's generation-gen snapshot into dir and
// creates the generation's empty local WAL. The engine's own manifest.json
// stays absent until the replica's first rotation writes it: the sharded
// manifest pins the generation and shard.Open never reads it.
func (f *Follower) stageStream(dir string, stream int, gen uint64) error {
	objects, index, manifest := spatialkeyword.SnapshotFileNames(gen)
	manifestBytes, err := f.fetchSnapshot(stream, gen, "manifest")
	if err != nil {
		return err
	}
	if err := writeFileSync(filepath.Join(dir, manifest), manifestBytes); err != nil {
		return err
	}
	for file, name := range map[string]string{"objects": objects, "index": index} {
		data, err := f.fetchSnapshot(stream, gen, file)
		if err != nil {
			return err
		}
		if err := writeFileSync(filepath.Join(dir, name), data); err != nil {
			return err
		}
	}
	cfg, mgen, err := spatialkeyword.PeekManifest(filepath.Join(dir, manifest))
	if err != nil {
		return err
	}
	if mgen != gen {
		return fmt.Errorf("repl: leader served manifest for generation %d, want %d", mgen, gen)
	}
	if !cfg.WAL {
		return fmt.Errorf("repl: leader engine has no write-ahead log")
	}
	return spatialkeyword.CreateEmptyWAL(filepath.Join(dir, spatialkeyword.WALFileName(gen)), cfg.BlockSize)
}

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(path string, data []byte) error {
	fd, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := fd.Write(data); err != nil {
		fd.Close() //nolint:errcheck // already failing
		return err
	}
	if err := fd.Sync(); err != nil {
		fd.Close() //nolint:errcheck // already failing
		return err
	}
	return fd.Close()
}

// fetchSnapshot downloads one snapshot file's bytes. The request is bound
// to the follower's context: Close cancels it.
func (f *Follower) fetchSnapshot(stream int, gen uint64, file string) ([]byte, error) {
	url := fmt.Sprintf("%s%s?shard=%d&gen=%d&file=%s", f.base, SnapshotPath, stream, gen, file)
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only body
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("repl: snapshot %s gen %d: leader answered %s", file, gen, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// run supervises the per-stream tail loops: any loop demanding a resync
// tears every engine down, re-bootstraps from a fresh snapshot, and
// restarts the tails. Exits only when the follower is closed.
func (f *Follower) run() {
	defer f.wg.Done()
	for {
		if f.ctx.Err() != nil {
			return
		}
		f.posMu.Lock()
		n := len(f.positions)
		f.posMu.Unlock()
		tailCtx, cancel := context.WithCancel(f.ctx)
		errc := make(chan error, n)
		var tw sync.WaitGroup
		for i := 0; i < n; i++ {
			tw.Add(1)
			go func(stream int) {
				defer tw.Done()
				errc <- f.tail(tailCtx, stream)
			}(i)
		}
		needResync := false
		select {
		case <-f.ctx.Done():
		case err := <-errc:
			if err != nil {
				needResync = true
			}
		}
		cancel()
		tw.Wait()
		for len(errc) > 0 {
			if err := <-errc; err != nil {
				needResync = true
			}
		}
		if f.ctx.Err() != nil {
			return
		}
		if !needResync {
			continue
		}
		f.m.resyncs.Inc()
		f.mu.Lock()
		f.closeEnginesLocked() //nolint:errcheck // state is being discarded
		err := f.bootstrap()
		f.mu.Unlock()
		if err != nil {
			// Leader unreachable mid-resync: back off and try again.
			select {
			case <-time.After(f.retry):
			case <-f.ctx.Done():
				return
			}
		}
	}
}

// tail drains one stream: fetch the log after the current position, verify
// and apply, advance, rotate generations when the leader did. Transient
// leader errors retry in place; an unservable position (410) or a broken
// apply escalates to a full resync; corrupt or torn response bodies
// re-request from the last acknowledged position.
func (f *Follower) tail(ctx context.Context, stream int) error {
	badStreak := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		pos := f.position(stream)
		body, header, status, err := f.fetchLog(ctx, stream, pos)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			f.setConnected(stream, false)
			if !sleepCtx(ctx, f.retry) {
				return nil
			}
			continue
		}
		if status == http.StatusGone {
			return errResync
		}
		if status != http.StatusOK {
			f.setConnected(stream, false)
			if !sleepCtx(ctx, f.retry) {
				return nil
			}
			continue
		}
		f.setConnected(stream, true)
		head, _ := strconv.ParseUint(header.Get(HeaderHead), 10, 64)
		recs, err := decodeFrames(body, pos.Seq)
		if err != nil {
			// Torn or corrupt on the wire: the local log is untouched, so
			// re-requesting from the acknowledged position re-syncs the
			// stream without losing anything.
			badStreak++
			f.m.resyncs.Inc()
			if badStreak >= badFrameLimit {
				return errResync
			}
			continue
		}
		badStreak = 0
		if len(recs) > 0 {
			if err := f.apply(stream, recs); err != nil {
				return err
			}
			pos.Seq += uint64(len(recs))
		}
		f.setPosition(stream, pos, Position{Gen: pos.Gen, Seq: head})
		if rot := header.Get(HeaderRotate); rot != "" && pos.Seq >= head {
			nextGen, err := strconv.ParseUint(rot, 10, 64)
			if err != nil || nextGen <= pos.Gen {
				return errResync
			}
			if err := f.rotate(stream, nextGen); err != nil {
				return err
			}
			next := Position{Gen: nextGen, Seq: 0}
			f.setPosition(stream, next, next)
		}
	}
}

// sleepCtx sleeps d, reporting false if ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// fetchLog performs one /repl/log request.
func (f *Follower) fetchLog(ctx context.Context, stream int, pos Position) ([]byte, http.Header, int, error) {
	url := fmt.Sprintf("%s%s?shard=%d&gen=%d&after=%d&wait=%d",
		f.base, LogPath, stream, pos.Gen, pos.Seq, f.pollWait.Milliseconds())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, 0, err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only body
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, 0, err
	}
	return body, resp.Header, resp.StatusCode, nil
}

// apply replays one verified batch into the local replica. The shard's own
// write lock covers the batch, its flush and the WAL group commit, so
// concurrent reads never see a half-applied batch.
func (f *Follower) apply(stream int, recs []wal.Record) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.installed == nil {
		return ErrResyncing
	}
	return f.installed.ApplyReplicatedBatch(stream, recs)
}

// rotate performs the follower-local generation handoff: the stream's old
// log is fully applied, so a local checkpoint commits the same state the
// leader's rotation did, opens the same new generation, and lets the local
// WAL track the leader's new log from sequence 1.
func (f *Follower) rotate(stream int, nextGen uint64) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.installed == nil {
		return ErrResyncing
	}
	if err := f.installed.RotateShard(stream); err != nil {
		return err
	}
	if got := f.installed.ShardDurability()[stream].Generation; got != nextGen {
		return fmt.Errorf("%w: local rotation reached generation %d, leader is at %d", errResync, got, nextGen)
	}
	return nil
}

// position reads one stream's current position.
func (f *Follower) position(stream int) Position {
	f.posMu.Lock()
	defer f.posMu.Unlock()
	return f.positions[stream]
}

// setPosition advances one stream's applied position and leader watermark,
// refreshes the lag metrics, and wakes WaitFor waiters.
func (f *Follower) setPosition(stream int, pos, head Position) {
	f.posMu.Lock()
	f.positions[stream] = pos
	f.heads[stream] = head
	f.updateLagLocked()
	f.notifyLocked()
	f.posMu.Unlock()
}

// setConnected tracks per-stream connectivity; the connected gauge is 1
// only while every stream's last leader request succeeded.
func (f *Follower) setConnected(stream int, ok bool) {
	f.posMu.Lock()
	f.streamOK[stream] = ok
	all := true
	for _, s := range f.streamOK {
		all = all && s
	}
	if all {
		f.m.connected.Set(1)
	} else {
		f.m.connected.Set(0)
	}
	f.posMu.Unlock()
}

// updateLagLocked recomputes the lag gauges (posMu held). Record lag
// counts what the last responses proved shipped but unapplied; once a
// stream's watermark moved to a newer generation the old generation's
// remainder is unknown, so the value is a lower bound until the follower
// catches the rotation.
func (f *Follower) updateLagLocked() {
	var lag uint64
	caught := true
	for i := range f.positions {
		p, h := f.positions[i], f.heads[i]
		if h.Gen == p.Gen && h.Seq > p.Seq {
			lag += h.Seq - p.Seq
		} else if h.Gen > p.Gen {
			lag += h.Seq
		}
		if !p.AtLeast(h) {
			caught = false
		}
	}
	f.m.lagRecords.Set(int64(lag))
	if caught {
		f.behindSince = time.Time{}
		f.m.lagSeconds.Set(0)
		return
	}
	if f.behindSince.IsZero() {
		f.behindSince = time.Now()
	}
	f.m.lagSeconds.Set(time.Since(f.behindSince).Seconds())
}

// notifyLocked wakes position waiters (posMu held).
func (f *Follower) notifyLocked() {
	close(f.posChanged)
	f.posChanged = make(chan struct{})
}

// StreamStatus is one stream's replication progress.
type StreamStatus struct {
	// Gen and Applied are the follower's position: the generation it is
	// tailing and the last sequence durably applied within it.
	Gen     uint64 `json:"gen"`
	Applied uint64 `json:"applied"`
	// LeaderGen and LeaderHead are the leader's watermark as of the last
	// successful poll.
	LeaderGen  uint64 `json:"leader_gen"`
	LeaderHead uint64 `json:"leader_head"`
}

// Status is the follower's health summary (the skserve /healthz replication
// block).
type Status struct {
	Connected  bool           `json:"connected"`
	LagRecords uint64         `json:"lag_records"`
	LagSeconds float64        `json:"lag_seconds"`
	Snapshots  uint64         `json:"snapshots"`
	Resyncs    uint64         `json:"resyncs"`
	Streams    []StreamStatus `json:"streams"`
}

// Status reports the follower's replication progress.
func (f *Follower) Status() Status {
	f.posMu.Lock()
	defer f.posMu.Unlock()
	st := Status{
		Connected:  true,
		LagRecords: uint64(f.m.lagRecords.Value()),
		LagSeconds: f.m.lagSeconds.Value(),
		Snapshots:  f.m.snapshots.Value(),
		Resyncs:    f.m.resyncs.Value(),
		Streams:    make([]StreamStatus, len(f.positions)),
	}
	for i := range f.positions {
		st.Streams[i] = StreamStatus{
			Gen:        f.positions[i].Gen,
			Applied:    f.positions[i].Seq,
			LeaderGen:  f.heads[i].Gen,
			LeaderHead: f.heads[i].Seq,
		}
		st.Connected = st.Connected && f.streamOK[i]
	}
	return st
}

// WaitFor blocks until the follower's applied positions cover the token
// (a leader write-position, see Leader.PositionToken) — the
// read-your-writes barrier — or the timeout passes.
func (f *Follower) WaitFor(token string, timeout time.Duration) error {
	want, err := ParsePositions(token)
	if err != nil {
		return err
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		f.posMu.Lock()
		ok := len(want) == len(f.positions)
		for i := 0; ok && i < len(want); i++ {
			ok = f.positions[i].AtLeast(want[i])
		}
		ch := f.posChanged
		f.posMu.Unlock()
		if ok {
			return nil
		}
		select {
		case <-ch:
		case <-deadline.C:
			return fmt.Errorf("repl: position %s not reached within %v", token, timeout)
		}
	}
}

// Close stops the tail loops and releases the local replica.
func (f *Follower) Close() error {
	f.cancel()
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closeEnginesLocked()
}

// Add implements the write surface — always refused on a replica.
func (f *Follower) Add(point []float64, text string) (uint64, error) {
	return 0, ErrReadOnlyReplica
}

// Delete implements the write surface — always refused on a replica.
func (f *Follower) Delete(id uint64) error { return ErrReadOnlyReplica }

// Save implements the write surface — checkpoints are leader-driven (the
// follower rotates when the leader does), so explicit saves are refused.
func (f *Follower) Save() error { return ErrReadOnlyReplica }

// reader returns the installed replica with the serving lock held shared;
// the caller releases it through done. While a resync has the replica torn
// down the reader is one that fails every read with ErrResyncing.
func (f *Follower) reader() (r spatialkeyword.Reader, done func()) {
	f.mu.RLock()
	if f.installed == nil {
		return resyncing{}, f.mu.RUnlock
	}
	return f.installed, f.mu.RUnlock
}

// The read contract (spatialkeyword.Reader), served from the local replica
// and safe beside the tail. Corpus and MeterIO close over the replica
// installed when they were called: re-fetch them per query rather than
// keeping them across a resync.

func (f *Follower) Get(id uint64) (spatialkeyword.Object, error) {
	r, done := f.reader()
	defer done()
	return r.Get(id)
}

func (f *Follower) TopKWithStats(k int, point []float64, keywords ...string) ([]spatialkeyword.Result, spatialkeyword.QueryStats, error) {
	r, done := f.reader()
	defer done()
	return r.TopKWithStats(k, point, keywords...)
}

func (f *Follower) TopKRanked(k int, point []float64, keywords ...string) ([]spatialkeyword.RankedResult, error) {
	r, done := f.reader()
	defer done()
	return r.TopKRanked(k, point, keywords...)
}

func (f *Follower) WithinArea(lo, hi []float64, keywords ...string) ([]spatialkeyword.Result, error) {
	r, done := f.reader()
	defer done()
	return r.WithinArea(lo, hi, keywords...)
}

// The streams outlive the serving lock: a stream read-locks the replica's
// shards until it is closed, and a resync's teardown waits for those locks.

func (f *Follower) Search(point []float64, keywords ...string) (spatialkeyword.ResultStream, error) {
	r, done := f.reader()
	defer done()
	return r.Search(point, keywords...)
}

func (f *Follower) SearchArea(lo, hi []float64, keywords ...string) (spatialkeyword.ResultStream, error) {
	r, done := f.reader()
	defer done()
	return r.SearchArea(lo, hi, keywords...)
}

func (f *Follower) SearchRanked(point []float64, keywords ...string) (spatialkeyword.RankedStream, error) {
	r, done := f.reader()
	defer done()
	return r.SearchRanked(point, keywords...)
}

func (f *Follower) NumObjects() int {
	r, done := f.reader()
	defer done()
	return r.NumObjects()
}

func (f *Follower) Scan(fn func(spatialkeyword.Object) error) error {
	r, done := f.reader()
	defer done()
	return r.Scan(fn)
}

func (f *Follower) IsDeleted(id uint64) bool {
	r, done := f.reader()
	defer done()
	return r.IsDeleted(id)
}

func (f *Follower) Stats() spatialkeyword.Stats {
	r, done := f.reader()
	defer done()
	return r.Stats()
}

func (f *Follower) Corpus() spatialkeyword.CorpusStats {
	r, done := f.reader()
	defer done()
	return r.Corpus()
}

func (f *Follower) MeterIO() func() (random, sequential uint64) {
	r, done := f.reader()
	defer done()
	return r.MeterIO()
}

func (f *Follower) Flush() error {
	r, done := f.reader()
	defer done()
	return r.Flush()
}

// resyncing is the reader of a follower whose replica is torn down: reads
// that can fail do, with ErrResyncing; the rest answer for an empty engine.
type resyncing struct{}

func (resyncing) Get(uint64) (spatialkeyword.Object, error) {
	return spatialkeyword.Object{}, ErrResyncing
}

func (resyncing) TopKWithStats(int, []float64, ...string) ([]spatialkeyword.Result, spatialkeyword.QueryStats, error) {
	return nil, spatialkeyword.QueryStats{}, ErrResyncing
}

func (resyncing) TopKRanked(int, []float64, ...string) ([]spatialkeyword.RankedResult, error) {
	return nil, ErrResyncing
}

func (resyncing) WithinArea([]float64, []float64, ...string) ([]spatialkeyword.Result, error) {
	return nil, ErrResyncing
}

func (resyncing) Search([]float64, ...string) (spatialkeyword.ResultStream, error) {
	return nil, ErrResyncing
}

func (resyncing) SearchArea([]float64, []float64, ...string) (spatialkeyword.ResultStream, error) {
	return nil, ErrResyncing
}

func (resyncing) SearchRanked([]float64, ...string) (spatialkeyword.RankedStream, error) {
	return nil, ErrResyncing
}

func (resyncing) NumObjects() int                              { return 0 }
func (resyncing) Scan(func(spatialkeyword.Object) error) error { return ErrResyncing }
func (resyncing) IsDeleted(uint64) bool                        { return false }
func (resyncing) Stats() spatialkeyword.Stats                  { return spatialkeyword.Stats{} }
func (resyncing) Flush() error                                 { return ErrResyncing }

func (resyncing) Corpus() spatialkeyword.CorpusStats {
	return spatialkeyword.CorpusStats{DocFreq: func(string) int { return 0 }}
}

func (resyncing) MeterIO() func() (random, sequential uint64) {
	return func() (uint64, uint64) { return 0, 0 }
}
