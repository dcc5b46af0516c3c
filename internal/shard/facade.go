package shard

import (
	"errors"

	"spatialkeyword"
	"spatialkeyword/internal/storage"
)

// The rest of the read contract (see spatialkeyword.Reader): the methods
// internal/skql's executor and cost model need beyond the queries,
// mirroring the single engine's of the same names.

var _ spatialkeyword.Reader = (*ShardedEngine)(nil)

// NumObjects returns the number of global IDs ever assigned, including
// deleted and tombstoned ones. Valid global IDs are [0, NumObjects).
func (s *ShardedEngine) NumObjects() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.assign)
}

// IsDeleted reports whether gid no longer resolves to a live object:
// deleted on its shard, or tombstoned (reserved but never durable).
// Unknown IDs and IDs on an unavailable shard report false — reads of
// those fail with their own typed errors.
func (s *ShardedEngine) IsDeleted(gid uint64) bool {
	s.mu.RLock()
	if gid >= uint64(len(s.assign)) {
		s.mu.RUnlock()
		return false
	}
	loc := s.assign[gid]
	s.mu.RUnlock()
	if loc.shard < 0 {
		return true
	}
	sh := s.shards[loc.shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.eng == nil {
		return false
	}
	return sh.eng.IsDeleted(loc.local)
}

// Scan visits every live object in global-ID order. Unlike the
// single engine's Scan it skips deleted rows (per-shard object files
// cannot be addressed globally, so rows are read through Get); an
// unavailable shard fails the scan.
func (s *ShardedEngine) Scan(fn func(spatialkeyword.Object) error) error {
	n := s.NumObjects()
	for gid := 0; gid < n; gid++ {
		obj, err := s.Get(uint64(gid))
		if err != nil {
			if errors.Is(err, spatialkeyword.ErrDeleted) || errors.Is(err, spatialkeyword.ErrUnknownID) {
				continue
			}
			return err
		}
		if err := fn(obj); err != nil {
			return err
		}
	}
	return nil
}

// Corpus exports the engine-wide corpus statistics (see corpusStats):
// document count and frequencies include deleted documents, matching
// single-engine idf semantics.
func (s *ShardedEngine) Corpus() spatialkeyword.CorpusStats {
	return s.corpusStats()
}

// MeterIO snapshots every shard's disk counters; the returned function
// reports the random and sequential block accesses performed since the
// snapshot, summed across shards. Concurrent queries share the
// counters, so per-query attribution is exact only when the engine
// runs one query at a time.
func (s *ShardedEngine) MeterIO() func() (random, sequential uint64) {
	stop := s.MeterShardIO()
	return func() (uint64, uint64) {
		var total storage.Stats
		for _, st := range stop() {
			total = total.Add(st)
		}
		return total.Random(), total.Sequential()
	}
}
