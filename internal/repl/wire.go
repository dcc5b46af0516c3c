package repl

import (
	"fmt"
	"strconv"
	"strings"

	"spatialkeyword/internal/wal"
)

// Wire protocol. Replication runs over three HTTP endpoints the leader
// mounts under /repl:
//
//	GET /repl/meta
//	    JSON topology: each stream's current (generation, head-sequence)
//	    watermark, one stream per shard.
//
//	GET /repl/snapshot?shard=S&gen=G&file=objects|index|manifest|shards
//	    Raw bytes of one immutable file of a committed generation —
//	    follower bootstrap. "shards" is the sharded manifest (S and G
//	    ignored): it names the layout and pins every stream's generation;
//	    the rest are generation-G files of stream S.
//
//	GET /repl/log?shard=S&gen=G&after=N&wait=MS
//	    The stream's log records after sequence N in generation G, as
//	    concatenated WAL frames (the exact bytes AppendRecord produces).
//	    Response headers:
//	      X-SK-Repl-Gen     generation the frames belong to (= G)
//	      X-SK-Repl-Head    G's current head sequence on the leader
//	      X-SK-Repl-Rotate  present when G is already rotated: the next
//	                        generation; the follower drains G to head,
//	                        checkpoints locally, and continues there
//	    wait long-polls up to MS milliseconds when the follower is caught
//	    up. A request for a generation older than the leader's previous
//	    one answers 410 Gone: the tail is no longer servable and the
//	    follower must re-bootstrap from a fresh snapshot.
//
// A position — (generation, sequence) per stream — is a complete resume
// point: generations only move forward, and sequences are dense from 1
// within each generation. Position vectors also serialize as
// read-your-writes tokens ("gen.seq;gen.seq;..." in stream order), handed
// out by the leader on writes and awaited by replicas before reads.
const (
	MetaPath     = "/repl/meta"
	SnapshotPath = "/repl/snapshot"
	LogPath      = "/repl/log"

	HeaderGen    = "X-SK-Repl-Gen"
	HeaderHead   = "X-SK-Repl-Head"
	HeaderRotate = "X-SK-Repl-Rotate"
	// HeaderPosition carries a position-vector token on the leader's write
	// responses (read-your-writes) and on replica read responses (what the
	// answer reflects).
	HeaderPosition = "X-SK-Repl-Position"
)

// Meta is the /repl/meta payload.
type Meta struct {
	// Streams is one entry per replication stream — one per shard — in
	// stream order.
	Streams []StreamMeta `json:"streams"`
}

// StreamMeta is one stream's current watermark.
type StreamMeta struct {
	Gen  uint64 `json:"gen"`
	Head uint64 `json:"head"`
}

// Position is one stream's resume point: the last sequence applied within
// a generation.
type Position struct {
	Gen uint64
	Seq uint64
}

// AtLeast reports whether p is at or past q.
func (p Position) AtLeast(q Position) bool {
	return p.Gen > q.Gen || (p.Gen == q.Gen && p.Seq >= q.Seq)
}

// EncodePositions renders a position vector as a token.
func EncodePositions(ps []Position) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = strconv.FormatUint(p.Gen, 10) + "." + strconv.FormatUint(p.Seq, 10)
	}
	return strings.Join(parts, ";")
}

// ParsePositions parses a position-vector token.
func ParsePositions(tok string) ([]Position, error) {
	if tok == "" {
		return nil, fmt.Errorf("repl: empty position token")
	}
	parts := strings.Split(tok, ";")
	out := make([]Position, len(parts))
	for i, part := range parts {
		gs, ss, ok := strings.Cut(part, ".")
		if !ok {
			return nil, fmt.Errorf("repl: malformed position %q", part)
		}
		gen, err := strconv.ParseUint(gs, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("repl: malformed position %q", part)
		}
		seq, err := strconv.ParseUint(ss, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("repl: malformed position %q", part)
		}
		out[i] = Position{Gen: gen, Seq: seq}
	}
	return out, nil
}

// encodeFrames renders records as concatenated WAL frames — the /repl/log
// response body.
func encodeFrames(recs []wal.Record) []byte {
	var buf []byte
	for _, r := range recs {
		buf = AppendFrame(buf, r)
	}
	return buf
}

// AppendFrame appends one record, framed, to dst. (Thin alias over the WAL
// codec so fault tests can build wire bodies without importing wal.)
func AppendFrame(dst []byte, r wal.Record) []byte { return wal.AppendRecord(dst, r) }

// decodeFrames parses a /repl/log body into records and verifies stream
// continuity: the first record must be after+1 and each next one +1. Any
// violation — torn frame, CRC mismatch, sequence gap — is returned as an
// error wrapping wal.ErrBadFrame or wal.ErrPartialFrame so the tail loop
// can re-request from its last acknowledged position.
func decodeFrames(data []byte, after uint64) ([]wal.Record, error) {
	var recs []wal.Record
	next := after + 1
	for len(data) > 0 {
		rec, n, err := wal.DecodeFrame(data)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			// Clean terminator (zero length): only valid as trailing padding.
			for _, b := range data {
				if b != 0 {
					return nil, fmt.Errorf("%w: garbage after terminator", wal.ErrBadFrame)
				}
			}
			break
		}
		if rec.Seq != next {
			return nil, fmt.Errorf("%w: sequence %d, want %d", wal.ErrBadFrame, rec.Seq, next)
		}
		next++
		recs = append(recs, rec)
		data = data[n:]
	}
	return recs, nil
}
