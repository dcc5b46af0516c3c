package shard

import (
	"encoding/json"
	"fmt"

	"spatialkeyword"
	"spatialkeyword/internal/wal"
)

// Replication. A sharded engine replicates as N independent record streams,
// one per shard, each an ordinary engine WAL stream (see the root package's
// replication surface). Cross-shard ordering is not preserved — and does not
// need to be: add records carry the reserved global ID as their tag, so the
// follower rebuilds the global→shard assignment from the per-shard streams
// exactly the way crash recovery rebuilds it from the per-shard logs.

// ManifestFileName is the sharded manifest's name within the engine
// directory; a replica's bootstrap commits by writing it.
const ManifestFileName = shardManifestName

// ShardDir returns the directory holding shard i's engine files.
func (s *ShardedEngine) ShardDir(i int) string { return shardDir(s.dir, s.flat, i) }

// Layout reads from a sharded manifest's bytes (see Manifest) what a replica
// stages before it commits them: shard i's directory within dir, and the
// snapshot generation the manifest pins it at.
func Layout(dir string, manifest []byte) (dirs []string, gens []uint64, err error) {
	var m shardManifest
	if err := json.Unmarshal(manifest, &m); err != nil {
		return nil, nil, fmt.Errorf("shard: parse manifest: %w", err)
	}
	for i := range m.Gens {
		dirs = append(dirs, shardDir(dir, m.Flat, i))
	}
	return dirs, m.Gens, nil
}

// SetReplicationHooks installs the leader-side tail hooks on every shard's
// engine: onAppend fires after shard i durably logs a record, onRotate when
// shard i commits a new snapshot generation. Either may be nil. Hooks run on
// the mutating goroutine under the shard's write lock — stage, don't block.
// Install before serving traffic.
func (s *ShardedEngine) SetReplicationHooks(onAppend func(shard int, gen uint64, rec wal.Record), onRotate func(shard int, newGen uint64)) {
	for _, sh := range s.shards {
		if sh.eng == nil {
			continue
		}
		idx := sh.idx
		var appendHook func(uint64, wal.Record)
		var rotateHook func(uint64)
		if onAppend != nil {
			appendHook = func(gen uint64, rec wal.Record) { onAppend(idx, gen, rec) }
		}
		if onRotate != nil {
			rotateHook = func(newGen uint64) { onRotate(idx, newGen) }
		}
		sh.eng.SetReplicationHooks(appendHook, rotateHook)
	}
}

// ShardDurability returns every shard's WAL generation/sequence watermark,
// in shard order. An unavailable shard reports the zero value.
func (s *ShardedEngine) ShardDurability() []spatialkeyword.DurabilityStats {
	out := make([]spatialkeyword.DurabilityStats, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		if sh.eng != nil {
			out[i] = sh.eng.DurabilityStats()
		}
		sh.mu.RUnlock()
	}
	return out
}

// ShardReplayRecords returns the full records shard i's open replayed from
// its write-ahead logs, in replay order (see Engine.WALReplayRecords).
func (s *ShardedEngine) ShardReplayRecords(i int) []wal.Record {
	sh := s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.eng == nil {
		return nil
	}
	return sh.eng.WALReplayRecords()
}

// ApplyReplicatedBatch applies one batch of records shipped from the
// leader's shard-i stream, in order, then group-commits. The adds join the
// shard engine's queued run, which reads search, so a batch indexes nothing
// unless it fills the run. The shard's write lock is held across the whole
// batch so concurrent queries never observe a half-applied batch.
//
// Global-assignment bookkeeping mirrors crash recovery: an add's tag is the
// leader's reserved global ID, assigned through place — gaps (other shards'
// still undelivered streams) fill with tombstones, a tombstone is
// resurrected, and a live duplicate means the streams and the local state
// disagree: corruption, never silently absorbed.
func (s *ShardedEngine) ApplyReplicatedBatch(shard int, recs []wal.Record) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("shard: no shard %d", shard)
	}
	sh := s.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.eng == nil {
		return fmt.Errorf("shard %d: %w", shard, errShardDown)
	}
	for _, rec := range recs {
		add := rec.Op == wal.OpAdd
		if add {
			// Lock order matches Add: sh.mu (held) then s.mu.
			s.mu.Lock()
			err := s.place(rec.Tag, shardLoc{shard: shard, local: rec.ID})
			s.mu.Unlock()
			if err != nil {
				return fmt.Errorf("replicated record %d: %w", rec.Seq, err)
			}
		}
		if err := sh.eng.ApplyReplicated(rec); err != nil {
			if add {
				s.unplace(rec.Tag) // reserved but never applied — same rule as a failed Add
			}
			return fmt.Errorf("shard %d: %w", shard, err)
		}
		if add {
			sh.globals = append(sh.globals, rec.Tag)
		}
	}
	if err := sh.eng.SyncWAL(); err != nil {
		return fmt.Errorf("shard %d: %w", shard, err)
	}
	return nil
}

// RotateShard checkpoints shard i into a new snapshot generation and
// rewrites the sharded manifest to pin it — the follower's reaction to a
// leader-side rotation of that shard's stream. Unlike Save it touches only
// the one shard, so the other shards' streams keep draining undisturbed;
// the manifest's mixed generation vector is exactly what a crash between
// per-shard saves would leave, which Open already reopens consistently.
func (s *ShardedEngine) RotateShard(i int) error {
	if s.dir == "" {
		return spatialkeyword.ErrNotDurable
	}
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("shard: no shard %d", i)
	}
	sh := s.shards[i]
	sh.mu.Lock()
	if sh.eng == nil {
		sh.mu.Unlock()
		return fmt.Errorf("shard %d: %w", i, errShardDown)
	}
	err := sh.eng.Save()
	sh.mu.Unlock()
	if err != nil {
		return fmt.Errorf("shard %d: %w", i, err)
	}
	return s.writeShardManifest(s.generations())
}
