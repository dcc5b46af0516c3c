package main

import (
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// The box this benchmark runs on is shared, and its speed drifts by 10–40 %
// for minutes at a time without any steal time showing: every pass of a run,
// the server's CPU time included, slows down together (see README.md, "The
// estimator"). A per-op minimum over the passes of one run cannot remove a
// slow phase longer than the run. So the harness interleaves short bursts of
// a fixed reference loop with the work it times — between requests of a
// pass, between inserts of a set-up — and reports each phase's times at the
// reference speed: measured time × calibNominal / the phase's median burst
// time. The loop uses only the standard library, so no change to the
// repository can move it.

const (
	// calibReads is the length of one burst: random 4 KB preads from a
	// 16 MB file in the page cache, each followed by a CRC of the block —
	// the system call, copy and compute mix of the engine's own block reads.
	calibReads = 500
	calibBlock = 4096
	calibFile  = 16 << 20
	// calibNominal is a burst's duration on the box the workloads were
	// sized on, in a quiet phase. Times are reported as if every burst
	// took this long.
	calibNominal = 575 * time.Microsecond
)

// calibrator owns the reference file and the burst timings of one run.
type calibrator struct {
	f      *os.File
	buf    []byte
	x, sum uint32
	bursts []float64 // seconds, current phase
	speeds []float64 // one per finished phase
}

func newCalibrator(dir string) (*calibrator, error) {
	path := filepath.Join(dir, "calibration.dat")
	data := make([]byte, calibFile)
	rand.New(rand.NewSource(1)).Read(data) //nolint:errcheck // math/rand never fails
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &calibrator{f: f, buf: make([]byte, calibBlock), x: 12345}, nil
}

// burst runs the reference loop once, records how long it took in the
// current phase, and returns that time so a caller timing a longer
// interval can take it out.
func (c *calibrator) burst() (time.Duration, error) {
	start := time.Now()
	for i := 0; i < calibReads; i++ {
		c.x = c.x*1664525 + 1013904223 // LCG over the file's blocks
		off := int64(c.x>>8%(calibFile/calibBlock)) * calibBlock
		if _, err := c.f.ReadAt(c.buf, off); err != nil {
			return 0, err
		}
		c.sum = crc32.Update(c.sum, crc32.IEEETable, c.buf)
	}
	d := time.Since(start)
	c.bursts = append(c.bursts, d.Seconds())
	return d, nil
}

// endPhase closes the current phase and returns the box's speed during it
// relative to the reference: median burst time over the nominal one (above
// 1 = slower than nominal). Measured times of the phase are divided by it.
func (c *calibrator) endPhase() float64 {
	speed := 1.0
	if len(c.bursts) > 0 {
		speed = median(c.bursts) / calibNominal.Seconds()
	}
	c.bursts = c.bursts[:0]
	c.speeds = append(c.speeds, speed)
	return speed
}

func (c *calibrator) close() { c.f.Close() }
