package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// Every Device reads the same way: one body (ReadRunInto) per device, with
// Read and ReadRun as its allocating forms. The tests below hold all six
// shipped compositions to that, against the in-memory Disk as the reference.

const devTestBlockSize = 64

// devCase builds one device composition: dev is the device under test, base
// the innermost device, which owns the fault hook.
type devCase struct {
	name string
	mk   func(t *testing.T) (dev Device, base interface{ SetFault(FaultFunc) })
}

func devCases() []devCase {
	mem := func(*testing.T) *Disk { return NewDisk(devTestBlockSize) }
	file := func(t *testing.T) *FileDisk { return newFileDisk(t, devTestBlockSize) }
	return []devCase{
		{"Disk", func(t *testing.T) (Device, interface{ SetFault(FaultFunc) }) {
			d := mem(t)
			return d, d
		}},
		{"FileDisk", func(t *testing.T) (Device, interface{ SetFault(FaultFunc) }) {
			d := file(t)
			return d, d
		}},
		{"Checksum(Disk)", func(t *testing.T) (Device, interface{ SetFault(FaultFunc) }) {
			d := mem(t)
			c := NewChecksumDisk(d)
			return c, d
		}},
		{"Checksum(FileDisk)", func(t *testing.T) (Device, interface{ SetFault(FaultFunc) }) {
			d := file(t)
			c := NewChecksumDisk(d)
			return c, d
		}},
		{"Fault(Disk)", func(t *testing.T) (Device, interface{ SetFault(FaultFunc) }) {
			d := mem(t)
			f := NewFaultDevice(d, FaultPlan{})
			return f, d
		}},
		{"Fault(FileDisk)", func(t *testing.T) (Device, interface{ SetFault(FaultFunc) }) {
			d := file(t)
			f := NewFaultDevice(d, FaultPlan{})
			return f, d
		}},
	}
}

// devFixture allocates a six-block run and writes the first four blocks;
// the last two are allocated but never written, so on a FileDisk they lie
// past the file's end.
func devFixture(t *testing.T, dev Device) BlockID {
	t.Helper()
	first := dev.AllocRun(6)
	for i := 0; i < 4; i++ {
		if err := dev.Write(first+BlockID(i), devPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	return first
}

func devPayload(i int) []byte {
	return bytes.Repeat([]byte{byte('a' + i)}, 40)
}

// readMethods are the three ways to read a run; each returns the run's
// bytes. ReadRunInto reads into scratch pre-filled with 0xff, so a byte the
// device did not write shows.
var readMethods = []struct {
	name string
	read func(dev Device, id BlockID, n int) ([]byte, error)
}{
	{"Read", func(dev Device, id BlockID, n int) ([]byte, error) {
		var out []byte
		for i := 0; i < n; i++ {
			blk, err := dev.Read(id + BlockID(i))
			if err != nil {
				return nil, err
			}
			out = append(out, blk...)
		}
		return out, nil
	}},
	{"ReadRun", func(dev Device, id BlockID, n int) ([]byte, error) {
		return dev.ReadRun(id, n)
	}},
	{"ReadRunInto", func(dev Device, id BlockID, n int) ([]byte, error) {
		dst := bytes.Repeat([]byte{0xff}, n*dev.BlockSize()+7)
		if err := dev.ReadRunInto(id, n, dst); err != nil {
			return nil, err
		}
		if !bytes.Equal(dst[n*dev.BlockSize():], bytes.Repeat([]byte{0xff}, 7)) {
			return nil, errors.New("ReadRunInto wrote past the run")
		}
		return dst[:n*dev.BlockSize()], nil
	}},
}

type hookCall struct {
	op Op
	id BlockID
}

// devTrace is everything observable about a script of reads.
type devTrace struct {
	blocks [][]byte // payload prefix of every block read, in order
	stats  Stats
	hooks  []hookCall
}

// runDevScript reads four runs off a fresh device: a cold run, a run that
// continues the previous access, a single block, and a run whose blocks were
// never written.
func runDevScript(t *testing.T, c devCase, read func(Device, BlockID, int) ([]byte, error)) devTrace {
	t.Helper()
	dev, base := c.mk(t)
	first := devFixture(t, dev)
	var tr devTrace
	dev.ResetStats()
	base.SetFault(func(op Op, id BlockID) error {
		tr.hooks = append(tr.hooks, hookCall{op, id - first})
		return nil
	})
	bs := dev.BlockSize()
	for _, run := range []struct{ off, n int }{{0, 3}, {3, 2}, {1, 1}, {4, 2}} {
		got, err := read(dev, first+BlockID(run.off), run.n)
		if err != nil {
			t.Fatalf("run %+v: %v", run, err)
		}
		if len(got) != run.n*bs {
			t.Fatalf("run %+v: %d bytes, want %d", run, len(got), run.n*bs)
		}
		for i := 0; i < run.n; i++ {
			blk := got[i*bs : (i+1)*bs]
			want := make([]byte, bs)
			if run.off+i < 4 {
				copy(want, devPayload(run.off+i))
			}
			if !bytes.Equal(blk, want) {
				t.Fatalf("run %+v block %d = %q, want %q", run, i, blk, want)
			}
			tr.blocks = append(tr.blocks, blk[:40])
		}
	}
	base.SetFault(nil)
	tr.stats = dev.Stats()
	return tr
}

// TestEveryDeviceReadsTheSameWay: on each device the three read methods
// return identical bytes, charge identical Stats (random vs sequential,
// including the run that continues the previous access) and present the same
// (op, id) sequence to the fault hook; never-written blocks — past the
// file's end on a FileDisk — read as zeros into a dirty buffer; and every
// device agrees with the in-memory Disk.
func TestEveryDeviceReadsTheSameWay(t *testing.T) {
	var reference devTrace
	for ci, c := range devCases() {
		t.Run(c.name, func(t *testing.T) {
			var traces []devTrace
			for _, m := range readMethods {
				traces = append(traces, runDevScript(t, c, m.read))
			}
			for i, tr := range traces[1:] {
				if !reflect.DeepEqual(tr, traces[0]) {
					t.Errorf("%s differs from %s:\n%+v\nvs\n%+v", readMethods[i+1].name, readMethods[0].name, tr, traces[0])
				}
			}
			if ci == 0 {
				reference = traces[0]
				want := Stats{RandomReads: 3, SequentialReads: 5}
				if reference.stats != want {
					t.Errorf("Disk charged %+v, want %+v", reference.stats, want)
				}
				return
			}
			if !reflect.DeepEqual(traces[0], reference) {
				t.Errorf("differs from Disk:\n%+v\nvs\n%+v", traces[0], reference)
			}
		})
	}
}

// TestEveryDeviceChargesFaultedRunsByBlock: a fault on the i-th block of a
// run leaves exactly i blocks charged, whichever method issued the run.
func TestEveryDeviceChargesFaultedRunsByBlock(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range devCases() {
		for _, m := range readMethods {
			t.Run(c.name+"/"+m.name, func(t *testing.T) {
				dev, base := c.mk(t)
				first := devFixture(t, dev)
				for i := 0; i < 4; i++ {
					dev.ResetStats()
					base.SetFault(func(op Op, id BlockID) error {
						if id == first+BlockID(i) {
							return boom
						}
						return nil
					})
					if _, err := m.read(dev, first, 4); !errors.Is(err, boom) {
						t.Fatalf("fault on block %d: err = %v", i, err)
					}
					if got := dev.Stats().Reads(); got != uint64(i) {
						t.Errorf("fault on block %d charged %d blocks", i, got)
					}
				}
			})
		}
	}
}

// TestEveryDeviceRejectsBadRuns: a non-positive run length and a dst shorter
// than the run are errors that reach neither the counters nor the hook.
func TestEveryDeviceRejectsBadRuns(t *testing.T) {
	for _, c := range devCases() {
		t.Run(c.name, func(t *testing.T) {
			dev, base := c.mk(t)
			first := devFixture(t, dev)
			dev.ResetStats()
			base.SetFault(func(op Op, id BlockID) error {
				t.Errorf("hook saw %s %d", op, id)
				return nil
			})
			bs := dev.BlockSize()
			for _, n := range []int{0, -1} {
				if err := dev.ReadRunInto(first, n, make([]byte, bs)); err == nil {
					t.Errorf("ReadRunInto n=%d accepted", n)
				}
				if _, err := dev.ReadRun(first, n); err == nil {
					t.Errorf("ReadRun n=%d accepted", n)
				}
			}
			if err := dev.ReadRunInto(first, 2, make([]byte, 2*bs-1)); err == nil {
				t.Error("short dst accepted")
			}
			if err := dev.ReadRunInto(first, 1, nil); err == nil {
				t.Error("nil dst accepted")
			}
			if got := dev.Stats(); got != (Stats{}) {
				t.Errorf("rejected runs charged %+v", got)
			}
		})
	}
}

// TestFileDiskConcurrentReads runs 8 readers × 2,000 random runs beside a
// writer. Readers check a stable region byte for byte, and the writer's
// region for torn blocks (the writer fills a block with one value, so a
// block holding two values is half of a write); the total charged equals
// the number of blocks requested exactly — only the random/sequential split
// may depend on the schedule. Run with -race.
func TestFileDiskConcurrentReads(t *testing.T) {
	const (
		bs      = 256
		stable  = 32
		churn   = 8
		readers = 8
		runs    = 2000
	)
	d, err := CreateFileDisk(filepath.Join(t.TempDir(), "disk.db"), bs)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	first := d.AllocRun(stable + churn)
	for i := 0; i < stable+churn; i++ {
		if err := d.Write(first+BlockID(i), bytes.Repeat([]byte{byte(i)}, bs)); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetStats()

	var (
		wg        sync.WaitGroup
		stop      = make(chan struct{})
		requested atomic.Uint64
	)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for v := byte(0); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			id := first + BlockID(stable+int(v)%churn)
			if err := d.Write(id, bytes.Repeat([]byte{v}, bs)); err != nil {
				t.Errorf("write %d: %v", id, err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			dst := make([]byte, 3*bs)
			for i := 0; i < runs; i++ {
				n := 1 + rng.Intn(3)
				off := rng.Intn(stable + churn - n + 1)
				requested.Add(uint64(n))
				if err := d.ReadRunInto(first+BlockID(off), n, dst); err != nil {
					t.Errorf("read %d+%d: %v", off, n, err)
					return
				}
				for j := 0; j < n; j++ {
					blk := dst[j*bs : (j+1)*bs]
					want := blk[0]
					if off+j < stable {
						want = byte(off + j)
					}
					if !bytes.Equal(blk, bytes.Repeat([]byte{want}, bs)) {
						t.Errorf("block %d: not what was written (torn or stale)", off+j)
						return
					}
				}
			}
		}(int64(r) + 1)
	}
	wg.Wait()
	close(stop)
	<-writerDone
	if got, want := d.Stats().Reads(), requested.Load(); got != want {
		t.Errorf("charged %d block reads for %d requested", got, want)
	}
}

// BenchmarkFileDiskReadRunInto times the device read every warm node visit
// and every object load of a served engine pays: a 1-block run (an object
// row, a one-block node) and a 3-block run (an IR²-Tree node with 64-byte
// signatures), page-cache warm, into one reused buffer.
func BenchmarkFileDiskReadRunInto(b *testing.B) {
	d, err := CreateFileDisk(filepath.Join(b.TempDir(), "disk.db"), DefaultBlockSize)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	const blocks = 300
	first := d.AllocRun(blocks)
	if err := d.WriteRun(first, blocks, bytes.Repeat([]byte{7}, blocks*DefaultBlockSize)); err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("blocks=%d", n), func(b *testing.B) {
			dst := make([]byte, n*DefaultBlockSize)
			b.SetBytes(int64(len(dst)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.ReadRunInto(first+BlockID(i*7%(blocks-n)), n, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
