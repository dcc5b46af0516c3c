package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/wal"
)

// maxLogWait caps a /repl/log long-poll.
const maxLogWait = 30 * time.Second

// streamBuf is one stream's in-memory ship buffer: the current
// generation's records (recs[i] has sequence i+1) plus the previous
// generation's frozen records, kept so a follower mid-drain when the
// leader rotates can finish the old generation. Anything older is served
// by re-bootstrap.
type streamBuf struct {
	gen      uint64
	recs     []wal.Record
	prevGen  uint64
	prevRecs []wal.Record
	notify   chan struct{} // closed and replaced on every append/rotate
}

// Leader publishes a WAL engine's record streams — one per shard — over HTTP
// for followers. Create one with NewLeader before the engine serves traffic,
// and mount Handler() on the leader's HTTP server.
type Leader struct {
	eng *shard.ShardedEngine

	mu      sync.Mutex
	streams []*streamBuf
}

// NewLeader wires a leader to a durable WAL engine: every shard's ship buffer
// is seeded from the records the shard replayed at open (so followers survive
// leader restarts mid-generation), and the replication hooks are installed.
// Call before the engine serves traffic.
func NewLeader(s *shard.ShardedEngine) *Leader {
	l := &Leader{eng: s}
	for i, d := range s.ShardDurability() {
		l.streams = append(l.streams, newStreamBuf(d, s.ShardReplayRecords(i)))
	}
	s.SetReplicationHooks(l.onAppend, l.onRotate)
	return l
}

// newStreamBuf seeds a ship buffer from what the shard's open replayed (see
// Engine.WALReplayRecords): the live log's records — as many as it has
// assigned sequence numbers — are the current generation's, and when the open
// went through an older log first, that one's are the previous generation's,
// which a follower still pinned there drains before it rotates.
func newStreamBuf(d spatialkeyword.DurabilityStats, replayed []wal.Record) *streamBuf {
	sb := &streamBuf{gen: d.Generation, notify: make(chan struct{})}
	cut := len(replayed) - int(d.StagedSeq)
	sb.recs = slices.Clip(replayed[cut:])
	if older := replayed[:cut]; len(older) > 0 {
		start := len(older) - int(older[len(older)-1].Seq) // a log's sequence numbers are dense from 1
		sb.prevGen, sb.prevRecs = d.Generation-1, older[start:]
	}
	return sb
}

// onAppend stages one durably logged record in the stream's ship buffer.
// It runs on the engine's write path: in-memory work only.
func (l *Leader) onAppend(stream int, gen uint64, rec wal.Record) {
	l.mu.Lock()
	sb := l.streams[stream]
	sb.recs = append(sb.recs, rec)
	close(sb.notify)
	sb.notify = make(chan struct{})
	_ = gen // the rotate hook moved sb.gen before any append in the new generation
	l.mu.Unlock()
}

// onRotate freezes the finished generation and opens the next one.
func (l *Leader) onRotate(stream int, newGen uint64) {
	l.mu.Lock()
	sb := l.streams[stream]
	sb.prevGen, sb.prevRecs = sb.gen, sb.recs
	sb.gen, sb.recs = newGen, nil
	close(sb.notify)
	sb.notify = make(chan struct{})
	l.mu.Unlock()
}

// PositionToken returns the leader's current position vector as a token —
// every acknowledged write so far is at or below it. skserve stamps it on
// write responses so clients can demand read-your-writes from replicas.
func (l *Leader) PositionToken() string {
	l.mu.Lock()
	ps := make([]Position, len(l.streams))
	for i, sb := range l.streams {
		ps[i] = Position{Gen: sb.gen, Seq: uint64(len(sb.recs))}
	}
	l.mu.Unlock()
	return EncodePositions(ps)
}

// Handler returns the /repl HTTP handler. Mount it at the server root (the
// paths already carry the /repl prefix).
func (l *Leader) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+MetaPath, l.handleMeta)
	mux.HandleFunc("GET "+SnapshotPath, l.handleSnapshot)
	mux.HandleFunc("GET "+LogPath, l.handleLog)
	return mux
}

func (l *Leader) handleMeta(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	m := Meta{Streams: make([]StreamMeta, len(l.streams))}
	for i, sb := range l.streams {
		m.Streams[i] = StreamMeta{Gen: sb.gen, Head: uint64(len(sb.recs))}
	}
	l.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(m) //nolint:errcheck // best-effort response write
}

// parseStream validates the shard query parameter against the attached
// topology.
func (l *Leader) parseStream(r *http.Request) (int, error) {
	s := r.URL.Query().Get("shard")
	if s == "" {
		s = "0"
	}
	i, err := strconv.Atoi(s)
	if err != nil || i < 0 || i >= len(l.streams) {
		return 0, fmt.Errorf("repl: no stream %q", s)
	}
	return i, nil
}

func (l *Leader) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	file := q.Get("file")
	if file == "shards" {
		data, err := l.eng.Manifest()
		serveFile(w, data, err)
		return
	}
	stream, err := l.parseStream(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	gen, err := strconv.ParseUint(q.Get("gen"), 10, 64)
	if err != nil || gen == 0 {
		http.Error(w, "repl: bad gen", http.StatusBadRequest)
		return
	}
	// Only generation-derived names are servable — the client never picks a
	// filename.
	index, manifest := spatialkeyword.SnapshotFileNames(gen)
	var name string
	switch file {
	case "objects":
		data, err := spatialkeyword.SnapshotObjects(l.eng.ShardDir(stream), gen)
		serveFile(w, data, err)
		return
	case "index":
		name = index
	case "manifest":
		name = manifest
	default:
		http.Error(w, fmt.Sprintf("repl: unknown snapshot file %q", file), http.StatusBadRequest)
		return
	}
	data, err := os.ReadFile(filepath.Join(l.eng.ShardDir(stream), name))
	serveFile(w, data, err)
}

// serveFile writes a file's bytes, answering 404 when it does not exist
// (e.g. the generation was pruned mid-bootstrap — the follower restarts
// from the manifest).
func serveFile(w http.ResponseWriter, data []byte, err error) {
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			http.Error(w, "repl: snapshot file gone", http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data) //nolint:errcheck // best-effort response write
}

func (l *Leader) handleLog(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	stream, err := l.parseStream(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	gen, err := strconv.ParseUint(q.Get("gen"), 10, 64)
	if err != nil {
		http.Error(w, "repl: bad gen", http.StatusBadRequest)
		return
	}
	after, err := strconv.ParseUint(q.Get("after"), 10, 64)
	if err != nil {
		http.Error(w, "repl: bad after", http.StatusBadRequest)
		return
	}
	var wait time.Duration
	if ws := q.Get("wait"); ws != "" {
		ms, err := strconv.Atoi(ws)
		if err != nil || ms < 0 {
			http.Error(w, "repl: bad wait", http.StatusBadRequest)
			return
		}
		wait = time.Duration(ms) * time.Millisecond
		if wait > maxLogWait {
			wait = maxLogWait
		}
	}

	deadline := time.Now().Add(wait)
	l.mu.Lock()
	sb := l.streams[stream]
	for {
		switch gen {
		case sb.gen:
			head := uint64(len(sb.recs))
			if after > head {
				// The follower claims records the leader never wrote: its
				// position is from another life. Re-bootstrap.
				l.mu.Unlock()
				http.Error(w, "repl: position ahead of leader", http.StatusGone)
				return
			}
			if after < head || wait <= 0 || !time.Now().Before(deadline) {
				recs := sb.recs[after:head]
				l.mu.Unlock()
				h := w.Header()
				h.Set(HeaderGen, strconv.FormatUint(gen, 10))
				h.Set(HeaderHead, strconv.FormatUint(head, 10))
				h.Set("Content-Type", "application/octet-stream")
				w.Write(encodeFrames(recs)) //nolint:errcheck // best-effort response write
				return
			}
			// Caught up: long-poll for the next append or rotation.
			ch := sb.notify
			l.mu.Unlock()
			t := time.NewTimer(time.Until(deadline))
			select {
			case <-ch:
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
				return
			}
			t.Stop()
			l.mu.Lock()
		case sb.prevGen:
			head := uint64(len(sb.prevRecs))
			nextGen := sb.gen
			if after > head {
				l.mu.Unlock()
				http.Error(w, "repl: position ahead of rotated log", http.StatusGone)
				return
			}
			recs := sb.prevRecs[after:head]
			l.mu.Unlock()
			h := w.Header()
			h.Set(HeaderGen, strconv.FormatUint(gen, 10))
			h.Set(HeaderHead, strconv.FormatUint(head, 10))
			h.Set(HeaderRotate, strconv.FormatUint(nextGen, 10))
			h.Set("Content-Type", "application/octet-stream")
			w.Write(encodeFrames(recs)) //nolint:errcheck // best-effort response write
			return
		default:
			l.mu.Unlock()
			http.Error(w, "repl: generation no longer tailed", http.StatusGone)
			return
		}
	}
}
