package bench

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/obs"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/wal"
)

// ingestMut is one acknowledged mutation of the ingest workload.
type ingestMut struct {
	point geo.Point
	text  string
}

// ingestWorkload generates a seeded stream of object inserts shaped like
// the maintenance workload: clustered points, a dozen words of text each.
func ingestWorkload(ops int, seed int64) []ingestMut {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{
		"hotel", "cheap", "pool", "ocean", "view", "downtown", "parking",
		"breakfast", "pets", "wifi", "suite", "golf", "spa", "airport",
	}
	work := make([]ingestMut, ops)
	for i := range work {
		words := make([]byte, 0, 96)
		for w := 0; w < 10; w++ {
			if w > 0 {
				words = append(words, ' ')
			}
			words = append(words, vocab[rng.Intn(len(vocab))]...)
		}
		work[i] = ingestMut{
			point: geo.NewPoint(rng.Float64()*100, rng.Float64()*100),
			text:  fmt.Sprintf("object %d %s", i, words),
		}
	}
	return work
}

// ingestArm accumulates one durability strategy's modeled cost: total
// device I/O plus a per-mutation modeled-disk-time histogram.
type ingestArm struct {
	io   storage.Stats
	hist *obs.Histogram
	cm   storage.CostModel
}

func newIngestArm(cm storage.CostModel) *ingestArm {
	return &ingestArm{hist: obs.NewHistogram(obs.LatencyBuckets()), cm: cm}
}

// step meters one mutation: run op with the meters started, fold the I/O
// into the arm's totals, and record the mutation's modeled disk time.
func (a *ingestArm) step(devs []storage.Device, op func() error) error {
	meters := make([]*storage.Meter, len(devs))
	for i, d := range devs {
		meters[i] = storage.StartMeter(d)
	}
	err := op()
	var io storage.Stats
	for _, m := range meters {
		io = io.Add(m.Stop())
	}
	a.io = a.io.Add(io)
	a.hist.Observe(a.cm.Time(io).Seconds())
	return err
}

// measurement renders the arm's totals per acknowledged mutation. CPU time
// is deliberately absent: the ingest experiment compares durability I/O
// only, so the whole table is a pure function of the seed and cost model.
func (a *ingestArm) measurement(m Method, ops int) Measurement {
	q := float64(ops)
	return Measurement{
		Method:        m,
		Queries:       ops,
		AvgRandom:     float64(a.io.Random()) / q,
		AvgSequential: float64(a.io.Sequential()) / q,
		AvgDiskTime:   a.cm.Time(a.io) / time.Duration(ops),
		DiskTimeHist:  a.hist.Snapshot(),
	}
}

// runIngestSave plays the workload with checkpoint-per-op durability: every
// mutation is acknowledged only after the full generational save protocol —
// checkpoint the working device, copy it to an immutable snapshot, commit
// with a manifest write. That is the block-level shape of calling
// Engine.Save after each Add (DESIGN.md S12's recovery protocol), which is
// what incremental durability cost before the write-ahead log existed.
func runIngestSave(work []ingestMut, cm storage.CostModel) (Measurement, error) {
	dataDev := storage.NewDisk(storage.DefaultBlockSize)
	snapDev := storage.NewDisk(storage.DefaultBlockSize)
	maniDev := storage.NewDisk(storage.DefaultBlockSize)
	store := objstore.New(dataDev)
	maniBlock := maniDev.Alloc()
	manifest := make([]byte, maniDev.BlockSize())
	devs := []storage.Device{dataDev, snapDev, maniDev}
	arm := newIngestArm(cm)
	for i, w := range work {
		err := arm.step(devs, func() error {
			if _, _, err := store.Append(w.point, w.text); err != nil {
				return err
			}
			if _, err := store.Checkpoint(); err != nil {
				return err
			}
			// Generation snapshot: the working files are only consistent at
			// the checkpoint instant, so Save copies them in full — dead
			// blocks included, exactly like copying the file.
			n := dataDev.NumBlocks()
			data, err := dataDev.ReadRun(storage.FirstBlock, n)
			if err != nil {
				return err
			}
			if err := snapDev.WriteRun(snapDev.AllocRun(n), n, data); err != nil {
				return err
			}
			// Commit point: rewrite the manifest block.
			binary.LittleEndian.PutUint64(manifest, uint64(i+1))
			return maniDev.Write(maniBlock, manifest)
		})
		if err != nil {
			return Measurement{}, fmt.Errorf("bench: ingest save arm: %w", err)
		}
	}
	return arm.measurement(MethodSavePerOp, len(work)), nil
}

// runIngestWAL plays the workload with write-ahead durability: each
// mutation is framed into the log, applied to the store in memory, and
// acknowledged when its batch group-commits. One checkpoint at the end
// charges the arm the log-rotation cost the next Save would pay.
func runIngestWAL(work []ingestMut, batch int, cm storage.CostModel) (Measurement, error) {
	objDev := storage.NewDisk(storage.DefaultBlockSize)
	walDev := storage.NewDisk(storage.DefaultBlockSize)
	devs := []storage.Device{objDev, walDev}
	store := objstore.New(objDev)
	l, err := wal.Create(walDev)
	if err != nil {
		return Measurement{}, err
	}
	app := wal.NewAppender(l, 0)
	arm := newIngestArm(cm)
	for i, w := range work {
		err := arm.step(devs, func() error {
			if _, _, err := store.Append(w.point, w.text); err != nil {
				return err
			}
			rec := wal.Record{Op: wal.OpAdd, ID: uint64(i), Point: w.point, Text: w.text}
			if _, err := app.AppendAsync(rec); err != nil {
				return err
			}
			if (i+1)%batch == 0 {
				return app.Sync()
			}
			return nil
		})
		if err != nil {
			return Measurement{}, fmt.Errorf("bench: ingest wal arm (batch %d): %w", batch, err)
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
		return Measurement{}, fmt.Errorf("bench: ingest wal rotation (batch %d): %w", batch, err)
	}
	return arm.measurement(MethodWALGroup, len(work)), nil
}

// IngestDurability quantifies the write-path trade the write-ahead log
// exists for (DESIGN.md S14): the modeled disk cost of acknowledging each
// mutation via a full checkpoint versus appending it to the WAL and group
// committing batches of the given sizes. Both arms replay the same seeded
// insert stream onto simulated disks, so every number is a pure function
// of (ops, batches, seed, cost model) — no wall clock anywhere — and the
// CI baseline comparison is exact across hosts. The WAL arms are charged
// their end-of-run checkpoint too (the rotation the next Save performs),
// so the comparison is durability-complete, not append-only.
func IngestDurability(ops int, batches []int, seed int64, cm storage.CostModel) (*Table, error) {
	if ops <= 0 {
		return nil, fmt.Errorf("bench: ingest ops %d", ops)
	}
	t := &Table{
		Title:   fmt.Sprintf("Ingest durability — %d inserts, checkpoint-per-op vs WAL group commit (S14)", ops),
		Columns: append(measurementColumns, "xSave"),
		Notes: []string{
			"expect: WAL group commit beats per-op checkpoints >=10x in modeled",
			"disk time at batch >= 8 (the S14 acceptance gate); batch=1 shows the",
			"log's win is batching fsyncs, not merely writing less",
		},
	}
	work := ingestWorkload(ops, seed)
	save, err := runIngestSave(work, cm)
	if err != nil {
		return nil, err
	}
	row := t.measurementRow("per-op", save)
	t.Rows = append(t.Rows, append(row, "1.0x"))
	for _, b := range batches {
		if b <= 0 {
			return nil, fmt.Errorf("bench: ingest batch %d", b)
		}
		m, err := runIngestWAL(work, b, cm)
		if err != nil {
			return nil, err
		}
		row := t.measurementRow(fmt.Sprintf("batch=%d", b), m)
		speed := "inf"
		if m.AvgDiskTime > 0 {
			speed = fmt.Sprintf("%.1fx", float64(save.AvgDiskTime)/float64(m.AvgDiskTime))
		}
		t.Rows = append(t.Rows, append(row, speed))
	}
	return t, nil
}
