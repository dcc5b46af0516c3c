package bench

import (
	"encoding/binary"
	"fmt"

	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/wal"
)

// runReplSnapshot measures the modeled disk cost of a follower re-bootstrap:
// sequentially read every block of the leader's checkpointed state, write it
// locally, create an empty local log, and commit with a manifest write —
// the block-level shape of internal/repl's snapshot bootstrap. The leader's
// own build is not metered (that state exists before the follower arrives).
func runReplSnapshot(work []ingestMut, cm storage.CostModel) (Measurement, error) {
	leaderDev := storage.NewDisk(storage.DefaultBlockSize)
	leader := objstore.New(leaderDev)
	for _, w := range work {
		if _, _, err := leader.Append(w.point, w.text); err != nil {
			return Measurement{}, err
		}
	}
	if _, err := leader.Checkpoint(); err != nil {
		return Measurement{}, err
	}

	follDev := storage.NewDisk(storage.DefaultBlockSize)
	walDev := storage.NewDisk(storage.DefaultBlockSize)
	maniDev := storage.NewDisk(storage.DefaultBlockSize)
	arm := newIngestArm(cm)
	devs := []storage.Device{leaderDev, follDev, walDev, maniDev}
	err := arm.step(devs, func() error {
		n := leaderDev.NumBlocks()
		data, err := leaderDev.ReadRun(storage.FirstBlock, n)
		if err != nil {
			return err
		}
		if err := follDev.WriteRun(follDev.AllocRun(n), n, data); err != nil {
			return err
		}
		if _, err := wal.Create(walDev); err != nil {
			return err
		}
		manifest := make([]byte, maniDev.BlockSize())
		binary.LittleEndian.PutUint64(manifest, uint64(len(work)))
		return maniDev.Write(maniDev.Alloc(), manifest)
	})
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: repl snapshot arm: %w", err)
	}
	return arm.measurement(MethodReplSnapshot, len(work)), nil
}

// runReplShip measures the modeled disk cost of catching up by log
// shipping: the follower already holds the first len(work)-lag objects (its
// last bootstrap, not metered) and replays the last lag records the way
// internal/repl's follower applies a batch — re-log each record into the
// local WAL, apply it to the store, and group-commit per shipped batch.
func runReplShip(work []ingestMut, lag, batch int, cm storage.CostModel) (Measurement, error) {
	if lag > len(work) {
		return Measurement{}, fmt.Errorf("bench: repl lag %d > %d records", lag, len(work))
	}
	objDev := storage.NewDisk(storage.DefaultBlockSize)
	walDev := storage.NewDisk(storage.DefaultBlockSize)
	store := objstore.New(objDev)
	behind := work[:len(work)-lag]
	for _, w := range behind {
		if _, _, err := store.Append(w.point, w.text); err != nil {
			return Measurement{}, err
		}
	}
	if _, err := store.Checkpoint(); err != nil {
		return Measurement{}, err
	}
	l, err := wal.Create(walDev)
	if err != nil {
		return Measurement{}, err
	}
	app := wal.NewAppender(l, 0)

	arm := newIngestArm(cm)
	devs := []storage.Device{objDev, walDev}
	for i, w := range work[len(behind):] {
		err := arm.step(devs, func() error {
			rec := wal.Record{Op: wal.OpAdd, ID: uint64(len(behind) + i), Point: w.point, Text: w.text}
			if _, err := app.AppendAsync(rec); err != nil {
				return err
			}
			if _, _, err := store.Append(w.point, w.text); err != nil {
				return err
			}
			if (i+1)%batch == 0 {
				return app.Sync()
			}
			return nil
		})
		if err != nil {
			return Measurement{}, fmt.Errorf("bench: repl ship arm (lag %d): %w", lag, err)
		}
	}
	err = arm.step(devs, func() error {
		if err := app.Sync(); err != nil {
			return err
		}
		_, err := store.Checkpoint()
		return err
	})
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: repl ship finish (lag %d): %w", lag, err)
	}
	return arm.measurement(MethodReplShip, lag), nil
}

// ReplCatchup quantifies the resync policy of the replication subsystem
// (DESIGN.md S16): a follower that falls lag records behind a leader of
// `total` objects can catch up either by re-bootstrapping from a full
// snapshot (cost ~constant in lag: copy everything) or by shipping and
// replaying the missing log suffix (cost linear in lag). The crossover is
// why the follower tails the log while it can and only re-bootstraps on
// HTTP 410, when the leader has pruned the generation it needs. Both arms
// replay the same seeded workload onto simulated disks, so every number is
// a pure function of (total, lags, batch, seed, cost model) — no wall clock
// — and the table feeds the same CI baseline gate as vary-k and ingest.
func ReplCatchup(total int, lags []int, batch int, seed int64, cm storage.CostModel) (*Table, error) {
	if total <= 0 {
		return nil, fmt.Errorf("bench: repl total %d", total)
	}
	if batch <= 0 {
		return nil, fmt.Errorf("bench: repl batch %d", batch)
	}
	t := &Table{
		Title:   fmt.Sprintf("Replication catch-up — %d-object leader, snapshot re-bootstrap vs shipping the last `lag` records (S16)", total),
		Columns: append(measurementColumns, "xSnap"),
		Notes: []string{
			"expect: shipping a small lag beats a full snapshot re-bootstrap by a",
			"wide margin, and the advantage shrinks as lag approaches the dataset",
			"size — the crossover that justifies tail-while-possible, 410-then-snapshot",
		},
	}
	work := ingestWorkload(total, seed)
	snap, err := runReplSnapshot(work, cm)
	if err != nil {
		return nil, err
	}
	row := t.measurementRow("snapshot", snap)
	t.Rows = append(t.Rows, append(row, "1.0x"))
	snapTotal := float64(snap.AvgDiskTime) * float64(snap.Queries)
	for _, lag := range lags {
		if lag <= 0 {
			return nil, fmt.Errorf("bench: repl lag %d", lag)
		}
		m, err := runReplShip(work, lag, batch, cm)
		if err != nil {
			return nil, err
		}
		row := t.measurementRow(fmt.Sprintf("lag=%d", lag), m)
		speed := "inf"
		if shipTotal := float64(m.AvgDiskTime) * float64(m.Queries); shipTotal > 0 {
			speed = fmt.Sprintf("%.1fx", snapTotal/shipTotal)
		}
		t.Rows = append(t.Rows, append(row, speed))
	}
	return t, nil
}
