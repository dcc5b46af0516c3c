package spatialkeyword

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/wal"
)

// Replication surface. The write-ahead log is already a totally ordered,
// CRC-framed description of every mutation since the last snapshot, which
// makes it the natural replication stream: a leader publishes each durable
// record (and each log rotation) through the hooks below, and a follower
// replays the same records through ApplyReplicated — re-logging them into
// its own WAL first, so a replica crash recovers by the ordinary OpenEngine
// path and resumes from its durable watermark. internal/repl builds the
// leader/follower machinery on top of this surface.

// DurabilityStats is the engine's WAL watermark: which snapshot generation
// the log belongs to and how far the log has advanced within it. The pair
// (Generation, DurableSeq) is a replication position — a follower holding
// it has exactly the leader's acknowledged state up to that record.
type DurabilityStats struct {
	// Enabled reports whether the engine has a live write-ahead log.
	Enabled bool `json:"enabled"`
	// Generation is the last committed snapshot generation; the current
	// log carries mutations made after it.
	Generation uint64 `json:"generation"`
	// DurableSeq is the highest fsynced log sequence number in this
	// generation (0 right after a rotation).
	DurableSeq uint64 `json:"durable_seq"`
	// StagedSeq is the highest assigned sequence number, including
	// async-staged records not yet group-committed.
	StagedSeq uint64 `json:"staged_seq"`
}

// DurabilityStats returns the engine's WAL generation/sequence watermark.
// On a non-WAL engine only the snapshot generation is meaningful.
func (e *Engine) DurabilityStats() DurabilityStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ds := DurabilityStats{Generation: e.gen}
	if e.walApp != nil {
		ds.Enabled = true
		ds.DurableSeq = e.walApp.Stats().DurableSeq
		ds.StagedSeq = e.walApp.LastAssignedSeq()
	}
	return ds
}

// SetReplicationHooks installs the leader-side tail hooks: onAppend fires
// after every durably logged mutation with the engine's current generation
// and the full record (sequence number included); onRotate fires when Save
// commits a new generation and rotates the log. Either may be nil. The
// hooks run synchronously on the mutating goroutine under the engine's
// exclusive lock, so they must not block on I/O or call back into the
// engine; the replication leader only stages the record in an in-memory
// ship buffer.
func (e *Engine) SetReplicationHooks(onAppend func(gen uint64, rec wal.Record), onRotate func(newGen uint64)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.replOnAppend = onAppend
	e.replOnRotate = onRotate
}

// ApplyReplicated applies one record shipped from a leader's log. The
// record is first re-logged into the follower's own WAL — verifying that
// the locally assigned sequence number matches the leader's, i.e. the
// stream arrived gap-free — and then applied, exactly like recovery
// replay. Durability is batched: the caller syncs with SyncWAL at batch
// boundaries. Any failure is sticky (the local log and applied state may
// diverge), matching the engine's own mutation path.
func (e *Engine) ApplyReplicated(rec wal.Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.walApp == nil {
		return errors.New("spatialkeyword: ApplyReplicated needs a WAL-enabled durable engine")
	}
	return e.apply(rec, stage)
}

// SyncWAL group-commits every async-staged WAL record — the follower's
// batch boundary. A no-op without a WAL.
func (e *Engine) SyncWAL() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.walApp == nil {
		return nil
	}
	if err := e.walApp.Sync(); err != nil {
		e.walBroken = err
		return err
	}
	return nil
}

// WALReplayRecords returns the records the open of this engine replayed, in
// replay order (fixed once the engine is open): the log of the generation it
// was opened from and, when that was behind the directory's commit point (see
// OpenEngineAt), of every generation after it — consecutive generations, each
// log's sequence numbers starting again at 1, the last log the live one. A
// restarted leader seeds its ship buffers from them, so followers can resume
// mid-generation across leader restarts; the sharded engine reads the adds'
// tags to rebuild its global assignment after a crash.
func (e *Engine) WALReplayRecords() []wal.Record {
	return e.walReplayRecs
}

// SnapshotFileNames returns the names of committed generation gen's
// immutable index copy and manifest, relative to the engine directory. The
// replication leader serves these bytes for follower bootstrap; the
// follower writes them under the same names. The generation's object file
// is SnapshotObjects, written under SnapshotObjectsName.
func SnapshotFileNames(gen uint64) (index, manifest string) {
	return genIndexName(gen), genManifestName(gen)
}

// SnapshotObjects returns the object file of committed generation gen in
// dir: objects.db up to the generation's frontier — blocks no write touches
// after the commit, so the engine may go on appending while they are read —
// or, for a generation an older build committed, its objects.<gen>.db. The
// first block of the prefix is the working header, which an open at the
// generation rewrites from the manifest.
func SnapshotObjects(dir string, gen uint64) ([]byte, error) {
	m, err := readManifest(filepath.Join(dir, genManifestName(gen)))
	if err != nil {
		return nil, err
	}
	if m.ObjectsFrontier == 0 {
		return os.ReadFile(filepath.Join(dir, genObjectsName(gen)))
	}
	f, err := os.Open(filepath.Join(dir, objectsName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int64(m.ObjectsFrontier-1) * int64(m.Config.blockSize())
	if info.Size() < size || size < 0 {
		return nil, fmt.Errorf("spatialkeyword: objects.db holds %d bytes, generation %d's frontier %d needs %d", info.Size(), gen, m.ObjectsFrontier, size)
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, fmt.Errorf("spatialkeyword: read generation %d's objects: %w", gen, err)
	}
	return data, nil
}

// SnapshotObjectsName returns the name, relative to the engine directory,
// that SnapshotObjects' bytes have for the generation the manifest at path
// describes: objects.db, or objects.<G>.db for a generation an older build
// committed.
func SnapshotObjectsName(manifestPath string) (string, error) {
	m, err := readManifest(manifestPath)
	if err != nil {
		return "", err
	}
	if m.ObjectsFrontier == 0 {
		return genObjectsName(m.Generation), nil
	}
	return objectsName, nil
}

// WALFileName returns the name of generation gen's write-ahead log file,
// relative to the engine directory.
func WALFileName(gen uint64) string { return walName(gen) }

// ManifestFileName is the committed-manifest name an engine directory is
// opened from.
const ManifestFileName = manifestName

// CreateEmptyWAL creates a fresh, empty write-ahead log file at path — the
// follower's bootstrap staging step: a downloaded snapshot is only
// openable once its generation's (empty) log exists beside it.
func CreateEmptyWAL(path string, blockSize int) error {
	if blockSize == 0 {
		blockSize = storage.DefaultBlockSize
	}
	fd, _, err := createWALFile(path, blockSize)
	if err != nil {
		return err
	}
	return fd.Close()
}

// PeekManifest reads the engine configuration and generation out of a
// manifest file without opening the engine. The replication follower uses
// it to learn the block size and generation of a downloaded snapshot.
func PeekManifest(path string) (Config, uint64, error) {
	m, err := readManifest(path)
	if err != nil {
		return Config{}, 0, err
	}
	return m.Config, m.Generation, nil
}
