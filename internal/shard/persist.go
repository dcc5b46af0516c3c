package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"spatialkeyword"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/wal"
)

// Durability. A durable sharded engine lives in a directory holding one
// subdirectory per shard — each a complete durable engine under the
// existing manifest scheme — plus a top-level sharded manifest recording
// the partitioner and the global→shard ID assignment:
//
//	dir/
//	  shards.json      partitioner state + assignment (written by Save)
//	  shard-0000/      manifest.json, objects.db, index.db
//	  shard-0001/
//	  ...
//
// Per-shard local IDs are insertion-ordered, so the assignment array (the
// shard index of every global ID, in global order) reconstructs both
// directions of the ID translation on reopen.
//
// That is the layout NewDurable creates, for any number of shards. Open also
// adopts, in place, a directory a plain spatialkeyword.Engine wrote
// (manifest.json and its files, no shards.json) as shard 0 of a one-shard
// engine — the flat layout; the first Save adds a shards.json saying so:
//
//	dir/
//	  shards.json      "flat": true
//	  manifest.json, objects.db, index.db, wal.<G>.db, ...
//
// No engine file is moved or rewritten: OpenEngine keeps opening it.

const shardManifestName = "shards.json"

// shardManifest is the sharded engine's durable root.
type shardManifest struct {
	Config      spatialkeyword.Config `json:"config"`
	Partitioner partitionerState      `json:"partitioner"`
	// Flat says the one shard's files sit in the engine directory itself: an
	// adopted single-engine directory (see shardDir).
	Flat bool `json:"flat,omitempty"`
	// Assign holds the shard index of each global object ID, -1 for a
	// global ID no shard holds. AssignRuns, when it is shorter, holds the
	// same as (shard index, count) pairs instead: a flat engine's whole
	// assignment is one run. readShardManifest expands it into Assign.
	Assign     []int `json:"assign,omitempty"`
	AssignRuns []int `json:"assign_runs,omitempty"`
	// Gens pins each shard to the snapshot generation it had when this
	// manifest was written. A crash after some shards saved a newer
	// generation but before the manifest commit reopens every shard at
	// these older — mutually consistent — generations instead of mixing
	// old and new shards.
	Gens []uint64 `json:"gens,omitempty"`
}

// Crash-consistency test hooks: the save protocol reaches the filesystem
// only through these vars, and saveStepHook (when non-nil) runs before each
// shard's save (step = shard index) and before the manifest write (step =
// shard count), so tests can kill the save at any point.
var (
	fsWriteFile  = os.WriteFile
	fsRename     = os.Rename
	fsSync       = storage.SyncPath // a file, or a directory after a rename
	saveStepHook func(step int) error
)

// shardDir names the i-th shard's directory: a subdirectory of dir, or dir
// itself in the flat layout.
func shardDir(dir string, flat bool, i int) string {
	if flat {
		return dir
	}
	return filepath.Join(dir, fmt.Sprintf("shard-%04d", i))
}

// IsShardedDir reports whether dir holds a durable engine Open restores: a
// sharded manifest, or the manifest of a plain engine to adopt.
func IsShardedDir(dir string) bool {
	for _, name := range []string{shardManifestName, spatialkeyword.ManifestFileName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

// NewDurable creates an empty sharded engine whose shards live in
// subdirectories of dir (created if needed). Call Save to persist state and
// Close to release the files.
func NewDurable(cfg spatialkeyword.Config, dir string, opts Options) (*ShardedEngine, error) {
	part, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: create engine dir: %w", err)
	}
	s := &ShardedEngine{cfg: cfg, part: part, an: cfg.Analyzer(), dir: dir}
	s.docFreqs = s.docFreq
	for i := 0; i < part.Shards(); i++ {
		eng, err := spatialkeyword.NewDurableEngine(cfg, shardDir(dir, false, i))
		if err != nil {
			s.Close() //nolint:errcheck // already failing
			return nil, err
		}
		s.shards = append(s.shards, &shardHandle{idx: i, eng: eng})
	}
	if cfg.WAL {
		// A log is only replayable from a committed baseline: commit the
		// empty engine now (mirroring NewDurableEngine's initial
		// checkpoint) so mutations acknowledged before the first explicit
		// Save survive an unclean shutdown.
		if err := s.Save(); err != nil {
			s.Close() //nolint:errcheck // already failing
			return nil, fmt.Errorf("shard: initial wal checkpoint: %w", err)
		}
	}
	return s, nil
}

// ErrUnhealthyShard is wrapped by Save when a shard marked unhealthy would
// be snapshotted: its working files are suspect (the fault that degraded it
// may have corrupted them), and committing them as a new generation would
// poison the last good snapshot. Repair the device and call ResetHealth to
// re-enable saves; until then the previously committed manifest keeps every
// shard pinned at a mutually consistent generation.
var ErrUnhealthyShard = errors.New("shard: unhealthy shard")

// Save checkpoints every shard and then the sharded manifest. Only durable
// engines can Save. Save refuses (with ErrUnhealthyShard) while any shard is
// degraded, before touching the disk, so reopening recovers the last
// consistent generation instead of a snapshot of faulted state.
func (s *ShardedEngine) Save() error {
	if s.dir == "" {
		return spatialkeyword.ErrNotDurable
	}
	for _, sh := range s.shards {
		if sh.unhealthy.Load() {
			err := fmt.Errorf("shard %d: %w, refusing to snapshot", sh.idx, ErrUnhealthyShard)
			if last, ok := sh.lastErr.Load().(error); ok && last != nil {
				err = fmt.Errorf("%w: %v", err, last)
			}
			return err
		}
	}
	gens := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		if saveStepHook != nil {
			if err := saveStepHook(i); err != nil {
				return err
			}
		}
		sh.mu.Lock()
		err := sh.eng.Save()
		gens[i] = sh.eng.Generation()
		sh.mu.Unlock()
		if err != nil {
			s.degrade(sh, err) // the shard's queued adds are indexed here, if no read did it first
			return fmt.Errorf("shard %d: %w", sh.idx, err)
		}
	}
	if saveStepHook != nil {
		if err := saveStepHook(len(s.shards)); err != nil {
			return err
		}
	}
	return s.writeShardManifest(gens)
}

// marshalManifest encodes the sharded manifest: the current assignment pinned
// to the given per-shard generation vector.
func (s *ShardedEngine) marshalManifest(gens []uint64) ([]byte, error) {
	ps, err := marshalPartitioner(s.part)
	if err != nil {
		return nil, err
	}
	m := shardManifest{Config: s.cfg, Partitioner: ps, Flat: s.flat, Gens: gens}
	s.mu.RLock()
	assign := make([]int, len(s.assign))
	for gid, loc := range s.assign {
		assign[gid] = loc.shard
	}
	s.mu.RUnlock()
	m.Assign, m.AssignRuns = encodeAssign(assign)
	// Not indented: one line per assigned ID would make the manifest a
	// visible share of a small engine's directory.
	return json.Marshal(&m)
}

// writeShardManifest atomically and durably commits the sharded manifest:
// the temporary file is synced before its rename and the directory after
// it. Save, RotateShard and Open's re-pin share it.
func (s *ShardedEngine) writeShardManifest(gens []uint64) error {
	data, err := s.marshalManifest(gens)
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, shardManifestName+".tmp")
	if err := fsWriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := fsSync(tmp); err != nil {
		return err
	}
	if err := fsRename(tmp, filepath.Join(s.dir, shardManifestName)); err != nil {
		return err
	}
	return fsSync(s.dir)
}

// Manifest returns the sharded manifest a replica bootstraps from: the
// committed one, or — for an adopted directory no Save has given one yet —
// the engine as it stands, pinned at its generation (what is past that
// generation's snapshot, the replica finds in the log it then tails).
func (s *ShardedEngine) Manifest() ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, shardManifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return s.marshalManifest(s.generations())
	}
	return data, err
}

// generations returns every shard's current snapshot generation, in shard
// order; a shard that is not open reports 0.
func (s *ShardedEngine) generations() []uint64 {
	gens := make([]uint64, len(s.shards))
	for i, d := range s.ShardDurability() {
		gens[i] = d.Generation
	}
	return gens
}

// Close releases every shard's files. Memory-only engines have nothing to
// close.
func (s *ShardedEngine) Close() error {
	var firstErr error
	for _, sh := range s.shards {
		if sh.eng == nil {
			continue
		}
		sh.mu.Lock()
		err := sh.eng.Close()
		sh.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// readShardManifest loads dir's sharded manifest. For a directory that has a
// plain engine's manifest and no sharded one it makes up the one that
// describes it — one hash shard, flat — and adopted says that the assignment
// is still to be filled in from the engine (see adopt).
func readShardManifest(dir string) (m shardManifest, adopted bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, shardManifestName))
	if errors.Is(err, fs.ErrNotExist) {
		cfg, _, perr := spatialkeyword.PeekManifest(filepath.Join(dir, spatialkeyword.ManifestFileName))
		if perr != nil {
			return m, false, fmt.Errorf("shard: read manifest: %w", err)
		}
		return shardManifest{Config: cfg, Partitioner: partitionerState{Kind: "hash", Shards: 1}, Flat: true}, true, nil
	}
	if err != nil {
		return m, false, fmt.Errorf("shard: read manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, false, fmt.Errorf("shard: parse manifest: %w", err)
	}
	if m.AssignRuns != nil {
		if m.Assign, err = decodeAssign(m.AssignRuns, m.Assign); err != nil {
			return m, false, err
		}
		m.AssignRuns = nil
	}
	return m, false, nil
}

// maxAssigned bounds the global IDs an assignment's runs may describe: a
// count past it is corruption, not a request for a gigabyte-sized table.
const maxAssigned = 1 << 28

// encodeAssign returns an assignment as the manifest stores it: as is, or
// as (shard index, count) runs when they are shorter.
func encodeAssign(assign []int) (plain, runs []int) {
	for i := 0; i < len(assign); {
		j := i + 1
		for j < len(assign) && assign[j] == assign[i] {
			j++
		}
		if runs = append(runs, assign[i], j-i); len(runs) >= len(assign) {
			return assign, nil
		}
		i = j
	}
	return nil, runs
}

// decodeAssign expands encodeAssign's runs. A manifest holding both forms
// is corrupt.
func decodeAssign(runs, plain []int) ([]int, error) {
	if plain != nil || len(runs)%2 != 0 {
		return nil, fmt.Errorf("shard: manifest has %d assignment run values beside %d assigned IDs", len(runs), len(plain))
	}
	var assign []int
	for i := 0; i < len(runs); i += 2 {
		n := runs[i+1]
		if n < 1 || n > maxAssigned-len(assign) {
			return nil, fmt.Errorf("shard: manifest assigns a run of %d objects after %d", n, len(assign))
		}
		for ; n > 0; n-- {
			assign = append(assign, runs[i])
		}
	}
	return assign, nil
}

// Open restores a durable sharded engine saved in dir — or adopts, in place,
// the directory of a plain spatialkeyword.Engine as a one-shard engine in the
// flat layout: every row is shard 0's and its global ID is its own.
func Open(dir string) (*ShardedEngine, error) {
	m, adopted, err := readShardManifest(dir)
	if err != nil {
		return nil, err
	}
	part, err := unmarshalPartitioner(m.Partitioner)
	if err != nil {
		return nil, err
	}
	if m.Gens != nil && len(m.Gens) != part.Shards() {
		return nil, fmt.Errorf("shard: manifest pins %d generations for %d shards", len(m.Gens), part.Shards())
	}
	if m.Flat && part.Shards() != 1 {
		return nil, fmt.Errorf("shard: flat manifest has %d shards", part.Shards())
	}
	s := &ShardedEngine{cfg: m.Config, part: part, an: m.Config.Analyzer(), dir: dir, flat: m.Flat}
	s.docFreqs = s.docFreq
	for i := 0; i < part.Shards(); i++ {
		// Open from the pinned generation, not whatever the shard's own
		// manifest points at: a crash between per-shard saves may have
		// advanced some shards past this manifest's assignment.
		pin := uint64(0) // none: the shard's own commit point
		if m.Gens != nil {
			pin = m.Gens[i]
		}
		eng, err := spatialkeyword.OpenEngineAt(shardDir(dir, m.Flat, i), pin)
		if err != nil {
			if m.Config.WAL && storage.IsIOFault(err) {
				// Degraded open: one shard's storage is faulting, but with a
				// WAL the rest of the engine is still exactly recoverable.
				// Serve the healthy shards; this one stays out of rotation
				// (sticky, like a mid-query fault) until repaired and
				// reopened.
				sh := &shardHandle{idx: i}
				sh.lastErr.Store(err)
				sh.unhealthy.Store(true)
				s.shards = append(s.shards, sh)
				continue
			}
			s.Close() //nolint:errcheck // already failing
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.shards = append(s.shards, &shardHandle{idx: i, eng: eng})
	}
	if eng := s.shards[0].eng; adopted && eng != nil {
		adopt(&m, eng)
	}
	// Rebuild the ID translation from the assignment: local IDs are
	// insertion-ordered within each shard, in global order.
	s.assign = make([]shardLoc, len(m.Assign))
	for gid, shardIdx := range m.Assign {
		if shardIdx == -1 {
			s.assign[gid] = tombstone
			continue
		}
		if shardIdx < 0 || shardIdx >= len(s.shards) {
			s.Close() //nolint:errcheck // already failing
			return nil, fmt.Errorf("shard: manifest assigns object %d to shard %d of %d", gid, shardIdx, len(s.shards))
		}
		sh := s.shards[shardIdx]
		s.assign[gid] = shardLoc{shard: shardIdx, local: uint64(len(sh.globals))}
		sh.globals = append(sh.globals, uint64(gid))
	}
	if m.Config.WAL {
		if err := s.reconcileWAL(len(m.Assign)); err != nil {
			s.Close() //nolint:errcheck // already failing
			return nil, err
		}
	}
	for _, sh := range s.shards {
		if sh.eng == nil {
			continue
		}
		if got := sh.eng.NumObjects(); got != len(sh.globals) {
			s.Close() //nolint:errcheck // already failing
			return nil, fmt.Errorf("shard %d: manifest assigns %d objects, engine holds %d", sh.idx, len(sh.globals), got)
		}
	}
	// A shard whose recovery went past its pin (see OpenEngineAt) is pinned
	// again where it stands, with the assignment the logs just rebuilt: its
	// next Save prunes the generation the stale pin names.
	gens := s.generations()
	for i, sh := range s.shards {
		if sh.eng == nil && m.Gens != nil {
			gens[i] = m.Gens[i] // not open: its pin stands
		}
	}
	if m.Gens != nil && !slices.Equal(gens, m.Gens) {
		if err := s.writeShardManifest(gens); err != nil {
			s.Close() //nolint:errcheck // already failing
			return nil, fmt.Errorf("shard: repin recovered shards: %w", err)
		}
	}
	return s, nil
}

// adopt completes the manifest made up for a plain engine's directory, now
// that the engine is open: its rows are global IDs 0..n-1 of shard 0. Its log
// was written without tags, so the replayed adds are given theirs — their
// own IDs — which is where a replica tailing this engine reads a global ID.
func adopt(m *shardManifest, eng *spatialkeyword.Engine) {
	m.Assign = make([]int, eng.NumObjects())
	recs := eng.WALReplayRecords()
	for i := range recs {
		if recs[i].Op == wal.OpAdd {
			recs[i].Tag = recs[i].ID
		}
	}
}

// reconcileWAL extends the manifest's global assignment with the mutations
// the shards replayed from their write-ahead logs, reconstructing the
// crash-lost portion of the global→shard map from the logs alone.
func (s *ShardedEngine) reconcileWAL(manifestLen int) error {
	// Reservations the manifest recorded but whose log record never became
	// durable: the shard holds fewer objects than the manifest assigns it.
	// A failed append breaks that shard's WAL (sticky), so the missing
	// objects are always the tail of its assignment; tombstone them.
	for _, sh := range s.shards {
		if sh.eng == nil {
			continue
		}
		if n := sh.eng.NumObjects(); n < len(sh.globals) {
			for _, gid := range sh.globals[n:] {
				s.unplace(gid)
			}
			sh.globals = sh.globals[:n]
		}
	}
	// Acknowledged adds beyond the manifest: each shard's replayed add
	// records carry the reserved global ID as their tag. Merge them in tag
	// order; per shard, tag order equals replay (local insertion) order, so
	// the rebuilt locals line up with the engines' object files. Gaps are
	// reservations that died with the crash — or live in a shard that
	// failed to open — and become tombstones.
	type newAdd struct {
		gid   uint64
		shard *shardHandle
	}
	var adds []newAdd
	for _, sh := range s.shards {
		if sh.eng == nil {
			continue
		}
		for _, rec := range sh.eng.WALReplayRecords() {
			if rec.Op != wal.OpAdd || rec.Tag < uint64(manifestLen) {
				continue // deletes and manifest-covered adds change no assignment
			}
			adds = append(adds, newAdd{gid: rec.Tag, shard: sh})
		}
	}
	sort.Slice(adds, func(i, j int) bool { return adds[i].gid < adds[j].gid })
	for _, a := range adds {
		if err := s.place(a.gid, shardLoc{shard: a.shard.idx, local: uint64(len(a.shard.globals))}); err != nil {
			return fmt.Errorf("shard %d: wal replay: %w", a.shard.idx, err)
		}
		a.shard.globals = append(a.shard.globals, a.gid)
	}
	return nil
}
