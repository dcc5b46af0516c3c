package spatialkeyword

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"spatialkeyword/internal/core"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/wal"
)

// Engine durability. An engine created with NewDurableEngine lives in a
// directory: the object file and the index each get a file-backed block
// device, Save checkpoints both structures plus a JSON manifest, and
// OpenEngine restores the engine from the directory.
//
//	eng, _ := spatialkeyword.NewDurableEngine(cfg, dir)
//	eng.Add(...)
//	eng.Save()
//	eng.Close()
//	...
//	eng, _ = spatialkeyword.OpenEngine(dir)
//
// Crash consistency. Inserts mutate index blocks in place and the allocator
// recycles freed blocks, so the working index.db is only consistent at the
// instant a checkpoint completes — a crash in the middle of later mutations
// or of Save itself would otherwise leave nothing to recover. The object
// file is append-only: its checkpoint seals the open block, and the object
// disk's allocator never hands out a block below the frontier a commit
// recorded, so a committed generation of objects.db is a prefix of the
// file — every block below the generation's frontier keeps the bytes the
// commit saw. Save therefore snapshots generationally:
//
//  1. flush + checkpoint both structures into the working files, fsync
//     them, and take objects.db's allocation frontier;
//  2. copy the working index to the immutable index.<G>.db and describe
//     the generation — the checkpoints' blocks and the frontier — in
//     manifest.<G>.json;
//  3. commit by atomically renaming a temp file over manifest.json;
//  4. prune generation G-2 (the previous generation is retained so
//     externally pinned readers — shard manifests — survive one more save).
//
// manifest.json is the single commit point: before the rename the directory
// still describes generation G-1 in full, after it generation G. OpenEngine
// recovers by copying the committed generation's index snapshot back over
// index.db and cutting objects.db back to the frontier manifest.json
// records, rewriting its allocator header from it, discarding whatever a
// crash left in either. A manifest an older build wrote has no frontier:
// its generation has an objects.<G>.db copy, which the open copies back
// once, and the next Save commits the prefix form.

// ErrNotDurable is returned by Save on a memory-only engine.
var ErrNotDurable = errors.New("spatialkeyword: engine has no backing directory")

// ErrRetiredOption refuses a directory whose manifest sets an option Config
// no longer has to a value the engine cannot reproduce: Multilevel (its
// index holds the MIR²-Tree's signature lengths, which a reopened engine
// cannot derive), a Dim other than 2 or a BitsPerWord other than 4 (its
// nodes or signatures were laid out for another). Zero, the value every
// manifest written before they were retired carries, opens.
var ErrRetiredOption = errors.New("spatialkeyword: index built with a retired option value; rebuild it from its objects")

// ErrRepackUncommitted refuses a directory from before snapshots (generation
// 0) whose tree an older build laid out: re-packing it would rewrite its
// only index.db under a manifest that points into the old one.
var ErrRepackUncommitted = errors.New("spatialkeyword: generation-0 directory holds an older tree layout with no committed copy to re-pack from; rebuild it from its objects")

// ErrLegacyMultilevel is ErrRetiredOption's earlier name; errors.Is matches
// either.
var ErrLegacyMultilevel = ErrRetiredOption

const (
	manifestName = "manifest.json"
	objectsName  = "objects.db"
	indexName    = "index.db"
)

// genManifestName names the immutable per-generation manifest.
func genManifestName(gen uint64) string { return fmt.Sprintf("manifest.%d.json", gen) }

// genObjectsName names the per-generation object file copy an older build's
// Save made; the open of such a generation reads it, and prune removes it.
func genObjectsName(gen uint64) string { return fmt.Sprintf("objects.%d.db", gen) }

// genIndexName names the immutable per-generation index snapshot.
func genIndexName(gen uint64) string { return fmt.Sprintf("index.%d.db", gen) }

// walName names the write-ahead log that carries mutations made after
// generation gen's snapshot. It is staged (empty) alongside the snapshot,
// so the commit rename atomically switches both the checkpoint and the log
// the next open replays.
func walName(gen uint64) string { return fmt.Sprintf("wal.%d.db", gen) }

// The save/open protocol reaches the filesystem only through these
// indirections, so crash-consistency tests can kill a save at any chosen
// operation and verify that Open still recovers a consistent snapshot.
var (
	fsWriteFile = os.WriteFile
	fsRename    = os.Rename
	fsSync      = storage.SyncPath // a file, or a directory after a rename
	fsRemove    = os.Remove
	fsCopyFile  = copyFile
	fsCreateWAL = createWALFile
)

// createWALFile creates a fresh, empty write-ahead log file at path.
func createWALFile(path string, blockSize int) (*storage.Disk, *wal.Log, error) {
	fd, err := storage.CreateFileDisk(path, blockSize)
	if err != nil {
		return nil, nil, err
	}
	l, err := wal.Create(fd)
	if err != nil {
		return nil, nil, errors.Join(err, fd.Close())
	}
	return fd, l, nil
}

// copyFile copies src to dst (truncating) and fsyncs the result.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// manifest is the engine's durable root: everything needed to reopen.
// ObjectsFrontier is objects.db's allocation frontier at the commit: the
// generation's object blocks all lie below it. Zero is a manifest from
// before the prefix form, whose generation has its own objects.<G>.db.
type manifest struct {
	Config          Config   `json:"config"`
	Generation      uint64   `json:"generation,omitempty"`
	TreeState       uint64   `json:"tree_state_block"`
	StoreMeta       uint64   `json:"store_meta_block"`
	ObjectsFrontier uint64   `json:"objects_frontier,omitempty"`
	Deleted         []uint64 `json:"deleted"`
	NumObjects      int      `json:"num_objects"`
}

// blockSize is the block size of the engine's devices: BlockSize, or
// storage.DefaultBlockSize when it is zero.
func (c Config) blockSize() int {
	if c.BlockSize == 0 {
		return storage.DefaultBlockSize
	}
	return c.BlockSize
}

// NewDurableEngine creates an empty engine whose object file and index live
// in dir (created if needed; existing engine files are truncated — use
// OpenEngine to reopen). Call Save to persist state and Close to release
// the files.
func NewDurableEngine(cfg Config, dir string) (*Engine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spatialkeyword: create engine dir: %w", err)
	}
	bs := cfg.blockSize()
	objDisk, err := storage.CreateFileDisk(filepath.Join(dir, objectsName), bs)
	if err != nil {
		return nil, err
	}
	idxDisk, err := storage.CreateFileDisk(filepath.Join(dir, indexName), bs)
	if err != nil {
		return nil, errors.Join(err, objDisk.Close())
	}
	e, err := newEngineOn(cfg, objDisk, idxDisk)
	if err != nil {
		return nil, errors.Join(err, objDisk.Close(), idxDisk.Close())
	}
	e.dir = dir
	e.objFile, e.idxFile = objDisk, idxDisk
	if cfg.WAL {
		// A log is only replayable on top of a committed snapshot, so a WAL
		// engine starts with an immediate empty checkpoint: Save commits
		// generation 1 and rotates in wal.1.db, making every subsequent
		// acknowledged mutation recoverable by OpenEngine.
		if err := e.Save(); err != nil {
			return nil, errors.Join(fmt.Errorf("spatialkeyword: initial wal checkpoint: %w", err), e.Close())
		}
	}
	return e, nil
}

// Generation returns the engine's last committed snapshot generation (0
// before the first successful Save).
func (e *Engine) Generation() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.gen
}

// Save flushes pending objects, checkpoints the engine's state into the
// working files, snapshots the index as a new generation beside objects.db's
// frontier, and commits it with an atomic manifest rename: objects.db and
// every file of the generation, both manifests included, are fsynced, and
// the directory once before the rename (so the names the commit points at
// are durable) and once after it. A Save that fails before the rename
// leaves the previous generation intact and recoverable; one whose directory sync
// fails has committed in memory and on the visible directory, but reports
// that the rename may not survive a power loss. Only durable engines can
// Save.
func (e *Engine) Save() error {
	if e.dir == "" {
		return ErrNotDurable
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.walBroken != nil {
		return fmt.Errorf("spatialkeyword: refusing to save with broken write-ahead log: %w", e.walBroken)
	}
	if e.walApp != nil {
		// Drain async appends so the log and the applied state agree before
		// the snapshot supersedes the log.
		if err := e.walApp.Sync(); err != nil {
			e.walBroken = err
			return err
		}
	}
	if err := e.flushLocked(); err != nil {
		return err
	}
	storeMeta, err := e.store.Checkpoint()
	if err != nil {
		return err
	}
	treeState, err := e.tree.Checkpoint(storage.NilBlock)
	if err != nil {
		return err
	}
	// The generation's object blocks are those below the frontier, and the
	// seal keeps every later allocation above it.
	frontier := e.objFile.Seal()
	// Make the working files' bytes (data + allocator headers) durable: the
	// object blocks are committed where they lie, the index is copied.
	for _, d := range []*storage.Disk{e.objFile, e.idxFile} {
		if err := d.SyncMeta(); err != nil {
			return err
		}
	}
	gen := e.gen + 1
	m := manifest{
		Config:          e.cfg,
		Generation:      gen,
		TreeState:       uint64(treeState),
		StoreMeta:       uint64(storeMeta),
		ObjectsFrontier: uint64(frontier),
		NumObjects:      e.store.NumObjects(),
	}
	for id := range e.deleted {
		m.Deleted = append(m.Deleted, id)
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	// Stage the generation: the index copy plus its own manifest, neither of
	// which the committed state references yet.
	if err := fsCopyFile(filepath.Join(e.dir, genIndexName(gen)), filepath.Join(e.dir, indexName)); err != nil {
		return fmt.Errorf("spatialkeyword: snapshot index: %w", err)
	}
	genManifest := filepath.Join(e.dir, genManifestName(gen))
	if err := fsWriteFile(genManifest, data, 0o644); err != nil {
		return err
	}
	if err := fsSync(genManifest); err != nil {
		return err
	}
	// Stage the new generation's (empty) write-ahead log before the commit
	// point, so the committed manifest always finds its log on open. A crash
	// before the rename leaves an orphan wal.<G>.db that the next Save
	// attempt recreates (CreateFileDisk truncates).
	var newWAL *storage.Disk
	var newLog *wal.Log
	if e.cfg.WAL {
		newWAL, newLog, err = fsCreateWAL(filepath.Join(e.dir, walName(gen)), e.cfg.blockSize())
		if err != nil {
			return fmt.Errorf("spatialkeyword: stage wal: %w", err)
		}
	}
	// Commit.
	tmp := filepath.Join(e.dir, manifestName+".tmp")
	err = fsWriteFile(tmp, data, 0o644)
	if err == nil {
		// The manifest's bytes are durable before its name is.
		err = fsSync(tmp)
	}
	if err == nil {
		// So are the names of the generation's files, which the commit
		// makes the manifest point at.
		err = fsSync(e.dir)
	}
	if err != nil {
		if newWAL != nil {
			return errors.Join(err, newWAL.Close())
		}
		return err
	}
	if err := fsRename(tmp, filepath.Join(e.dir, manifestName)); err != nil {
		if newWAL != nil {
			return errors.Join(err, newWAL.Close())
		}
		return err
	}
	e.gen = gen
	if e.cfg.WAL {
		// Rotate: the snapshot now covers everything the old log held, so
		// mutations from here land in the new generation's log. The old log
		// file (wal.<G-1>.db) stays on disk for pinned readers.
		old := e.walFile
		e.walFile = newWAL
		if e.walApp != nil {
			st := e.walApp.Stats()
			e.walAppends += st.Appends
			e.walFsyncs += st.Fsyncs
		}
		e.walApp = wal.NewAppender(newLog, e.cfg.WALSyncWindow)
		if e.walOnFsync != nil {
			e.walApp.SetFsyncObserver(e.walOnFsync)
		}
		if old != nil {
			//skvet:ignore erroprov the old log is fully superseded by the committed snapshot; its close cannot un-commit the save
			old.Close()
		}
		if e.replOnRotate != nil {
			e.replOnRotate(gen)
		}
	}
	// The rename is durable once the directory is synced. The engine has
	// moved to the new generation either way, so a failure is reported
	// after the rotation, not before it.
	if err := fsSync(e.dir); err != nil {
		return fmt.Errorf("spatialkeyword: sync directory after commit: %w", err)
	}
	e.prune(gen)
	return nil
}

// prune removes every generation older than gen-1 that the directory holds
// — not only gen-2, so a file an earlier prune failed to remove, or a crash
// lost the removal of, goes with the next Save — and then syncs the
// directory, so the removals outlive a power loss. Generation gen-1 is kept
// for pinned readers. Best effort: a failure here cannot un-commit the
// save, and the next Save retries what is left.
func (e *Engine) prune(gen uint64) {
	entries, err := os.ReadDir(e.dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		if g, ok := generationOf(ent.Name()); ok && g+1 < gen {
			fsRemove(filepath.Join(e.dir, ent.Name())) //nolint:errcheck
		}
	}
	fsSync(e.dir) //nolint:errcheck
}

// generationOf returns the generation a per-generation file's name carries:
// genObjectsName, genIndexName, genManifestName or walName.
func generationOf(name string) (uint64, bool) {
	for _, f := range [...]struct{ prefix, suffix string }{
		{"objects.", ".db"}, {"index.", ".db"}, {"manifest.", ".json"}, {"wal.", ".db"},
	} {
		if n, ok := strings.CutPrefix(name, f.prefix); ok {
			if n, ok := strings.CutSuffix(n, f.suffix); ok {
				g, err := strconv.ParseUint(n, 10, 64)
				return g, err == nil
			}
		}
	}
	return 0, false
}

// Close releases a durable engine's files (after persisting their device
// metadata). Memory-only engines have nothing to close.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var firstErr error
	if e.walApp != nil && e.walBroken == nil {
		// Make any async-staged records durable before losing the appender.
		if err := e.walApp.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, d := range []*storage.Disk{e.objFile, e.idxFile, e.walFile} {
		if d == nil {
			continue
		}
		if err := d.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.objFile, e.idxFile, e.walFile = nil, nil, nil
	e.walApp = nil
	return firstErr
}

// OpenEngine restores a durable engine from the generation committed in
// dir's manifest.json, recovering the working files from that generation —
// the index from its snapshot, objects.db cut back to its frontier — so a
// crash that tore the working files, or Save itself, is harmless. A tree an
// older build laid out is packed anew from the rows (see repack) — unless
// no generation is committed (ErrRepackUncommitted).
func OpenEngine(dir string) (*Engine, error) {
	m, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	return openFromManifest(dir, m, m.Generation, storage.BlockID(m.ObjectsFrontier))
}

// OpenEngineAt restores a durable engine from a specific committed
// generation's snapshot, regardless of what manifest.json currently points
// at. Sharded manifests use this: a crash between per-shard saves leaves some
// shards committed past the generation the manifest pins. Without a
// write-ahead log such a shard reopens at the pinned — older, mutually
// consistent — state. With one nothing acknowledged may be lost: recovery
// goes on through every log up to the directory's own commit point (see
// openWAL). The generation must still be on disk (Save retains the current
// and previous one). objects.db is cut back to the committed manifest's
// frontier, not the pinned one's: the blocks of every retained generation
// lie below it, so the engine's next allocations reuse none of them.
func OpenEngineAt(dir string, gen uint64) (*Engine, error) {
	if gen == 0 {
		return OpenEngine(dir)
	}
	m, err := readManifest(filepath.Join(dir, genManifestName(gen)))
	if err != nil {
		return nil, err
	}
	if m.Generation != gen {
		return nil, fmt.Errorf("spatialkeyword: manifest %s claims generation %d", genManifestName(gen), m.Generation)
	}
	committed, frontier := gen, m.ObjectsFrontier
	if cur, err := readManifest(filepath.Join(dir, manifestName)); err == nil {
		committed, frontier = max(committed, cur.Generation), max(frontier, cur.ObjectsFrontier)
	}
	return openFromManifest(dir, m, committed, storage.BlockID(frontier))
}

// readManifest loads and parses one manifest file.
func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, fmt.Errorf("spatialkeyword: read manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("spatialkeyword: parse manifest: %w", err)
	}
	var retired struct {
		Config struct {
			Multilevel       bool
			Dim, BitsPerWord int
		} `json:"config"`
	}
	if err := json.Unmarshal(data, &retired); err == nil {
		c := retired.Config
		if c.Multilevel || (c.Dim != 0 && c.Dim != geo.Dims) || (c.BitsPerWord != 0 && c.BitsPerWord != sigfile.DefaultBitsPerWord) {
			return m, fmt.Errorf("%w (%+v): %s", ErrRetiredOption, c, path)
		}
	}
	return m, nil
}

// openFromManifest recovers the working files from m's snapshot generation
// (when it has one; manifests of generation 0 predate snapshots) — objects.db
// cut back to frontier, or without one copied from an older build's
// objects.<G>.db — assembles the engine on them and, with a write-ahead log,
// replays it up to the committed generation.
func openFromManifest(dir string, m manifest, committed uint64, frontier storage.BlockID) (*Engine, error) {
	if m.Generation > 0 {
		if frontier == storage.NilBlock {
			if err := fsCopyFile(filepath.Join(dir, objectsName), filepath.Join(dir, genObjectsName(m.Generation))); err != nil {
				return nil, fmt.Errorf("spatialkeyword: recover objects snapshot: %w", err)
			}
		}
		if err := fsCopyFile(filepath.Join(dir, indexName), filepath.Join(dir, genIndexName(m.Generation))); err != nil {
			return nil, fmt.Errorf("spatialkeyword: recover index snapshot: %w", err)
		}
	}
	var objDisk *storage.Disk
	var err error
	if frontier != storage.NilBlock {
		objDisk, err = storage.OpenFileDiskAt(filepath.Join(dir, objectsName), m.Config.blockSize(), frontier)
	} else {
		objDisk, err = storage.OpenFileDisk(filepath.Join(dir, objectsName))
	}
	if err != nil {
		return nil, err
	}
	idxDisk, err := storage.OpenFileDisk(filepath.Join(dir, indexName))
	if err != nil {
		return nil, errors.Join(err, objDisk.Close())
	}
	objDev, idxDev := frameDevice(m.Config, objDisk), frameDevice(m.Config, idxDisk)
	store, err := objstore.Open(objDev, storage.BlockID(m.StoreMeta))
	if err != nil {
		return nil, errors.Join(err, objDisk.Close(), idxDisk.Close())
	}
	e, err := assembleEngine(m.Config, objDisk, idxDisk, objDev, idxDev, store, storage.BlockID(m.TreeState))
	if err != nil {
		return nil, errors.Join(err, objDisk.Close(), idxDisk.Close())
	}
	e.dir = dir
	e.gen = m.Generation
	for _, id := range m.Deleted {
		e.deleted[id] = true
	}
	e.live = store.NumObjects() - len(m.Deleted)
	if e.tree == nil {
		if m.Generation == 0 {
			return nil, errors.Join(ErrRepackUncommitted, e.Close())
		}
		if err := e.repack(); err != nil {
			e.Close()
			return nil, err
		}
	}
	if m.Config.WAL && m.Generation > 0 {
		if err := e.openWAL(dir, m.Generation, committed); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// openWAL replays the write-ahead logs of generations gen through committed,
// in order, on top of the freshly recovered generation-gen snapshot, and
// installs the last one for further appends; the engine continues in that
// generation. The two differ when the engine is opened behind its own commit
// point (see OpenEngineAt) and has acknowledged mutations into a later log.
// A checkpoint's snapshot equals the one before it plus the whole log between
// them, so the chain reconstructs the latest state; a log missing from it
// fails the open, and the check every replayed add passes — its ID is the
// store's next — proves it gap-free. Replay is deterministic: each log was
// physically truncated at its first torn frame, so two opens of the same
// directory apply the same mutations in the same order.
func (e *Engine) openWAL(dir string, gen, committed uint64) error {
	for ; ; gen++ {
		wd, err := storage.OpenFileDisk(filepath.Join(dir, walName(gen)))
		if err != nil {
			return fmt.Errorf("spatialkeyword: open wal: %w", err)
		}
		l, rec, err := wal.Open(wd)
		if err != nil {
			return errors.Join(fmt.Errorf("spatialkeyword: recover wal: %w", err), wd.Close())
		}
		if rec.Torn != nil {
			e.walTorn++
		}
		for _, r := range rec.Records {
			if err := e.apply(r, logged); err != nil {
				return errors.Join(err, wd.Close())
			}
		}
		e.walReplayRecs = append(e.walReplayRecs, rec.Records...)
		if gen >= committed {
			e.gen = gen
			e.walFile = wd
			e.walApp = wal.NewAppender(l, e.cfg.WALSyncWindow)
			return nil
		}
		if err := wd.Close(); err != nil {
			return err
		}
	}
}

// assembleEngine builds an Engine around an existing store and a
// checkpointed tree, or with no tree when the tree's leaves are in an older
// build's layout (repack gives it one). objDev/idxDev are the devices the
// structures read through (the file disks themselves, or their checksum
// framing).
func assembleEngine(cfg Config, objDisk, idxDisk *storage.Disk, objDev, idxDev storage.Device, store *objstore.Store, treeState storage.BlockID) (*Engine, error) {
	e := engineShell(cfg)
	e.objDisk = objDev
	e.idxDisk = idxDev
	e.objFile = objDisk
	e.idxFile = idxDisk
	e.store = store
	// Rebuild the row table — the vocabulary (idf statistics), every row's
	// terms, summary, point and leaf signature — from the object file, before
	// the tree, whose leaves' signatures it keeps; the engine never removes
	// deleted documents from it, so a full scan reproduces the live state.
	e.rows.Grow(store.NumObjects())
	if err := store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
		e.rows.Add(o.ID, o.Point, e.an, o.Text)
		return nil
	}); err != nil {
		return nil, err
	}
	tree, err := core.Open(idxDev, store, e.coreOptions(), &e.rows, treeState)
	if errors.Is(err, rtree.ErrLeafLayout) {
		return e, nil
	}
	if err != nil {
		return nil, err
	}
	e.tree = tree
	return e, nil
}

// repack gives an engine whose tree an older build laid out — leaves that
// store their signatures, or name each row by its object-file offset — a
// served tree: the working index file is created anew, and every live row
// is queued and packed into it, as a load's first flush packs, before the
// log replays. The committed generation's index.<G>.db is not touched and
// nothing is committed: the next Save commits the new layout, and until
// then every open packs again.
func (e *Engine) repack() error {
	bs := e.idxFile.BlockSize()
	if err := e.idxFile.Close(); err != nil {
		return err
	}
	idxFile, err := storage.CreateFileDisk(filepath.Join(e.dir, indexName), bs)
	e.idxFile = idxFile
	if err != nil {
		return err
	}
	e.idxDisk = frameDevice(e.cfg, idxFile)
	if e.tree, err = core.NewServed(e.idxDisk, e.store, e.coreOptions(), &e.rows); err != nil {
		return err
	}
	for id := range uint64(e.store.NumObjects()) {
		if !e.deleted[id] {
			e.run = append(e.run, id)
		}
	}
	return e.flushLocked()
}
