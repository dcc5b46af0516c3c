package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// Every Device reads the same way: one body (ReadRunInto) per device, with
// Read and ReadRun as its allocating forms, and ChargeRun as its admission
// without the bytes. The tests below hold all six shipped compositions — a
// Disk in memory ("Disk") and on a file ("FileDisk"), bare and wrapped — to
// that, against the memory-backed Disk as the reference.

const devTestBlockSize = 64

// devCase builds one device composition: dev is the device under test, base
// the innermost device, which owns the fault hook.
type devCase struct {
	name string
	mk   func(t *testing.T) (dev Device, base interface{ SetFault(FaultFunc) })
}

func devCases() []devCase {
	mem := func(*testing.T) *Disk { return NewDisk(devTestBlockSize) }
	file := func(t *testing.T) *Disk { return newFileDisk(t, devTestBlockSize) }
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
// the last two are allocated but never written, so on a file they lie past
// its end.
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
// file's end on a file — read as zeros into a dirty buffer; and every
// device agrees with the memory-backed Disk.
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
// run leaves exactly i blocks charged, whichever method issued the run —
// ChargeRun included, except on a device that declines it, which charges
// nothing.
func TestEveryDeviceChargesFaultedRunsByBlock(t *testing.T) {
	boom := errors.New("boom")
	declined := errors.New("charge declined")
	charge := readMethods[0]
	charge.name = "ChargeRun"
	charge.read = func(dev Device, id BlockID, n int) ([]byte, error) {
		ok, err := dev.ChargeRun(id, n, dev.WriteSeq())
		if !ok && err == nil {
			return nil, declined
		}
		return nil, err
	}
	for _, c := range devCases() {
		for _, m := range append(slices.Clip(readMethods), charge) {
			t.Run(c.name+"/"+m.name, func(t *testing.T) {
				dev, base := c.mk(t)
				first := devFixture(t, dev)
				want := boom
				if m.name == charge.name && chargeDeclines(dev) {
					want = declined
				}
				for i := 0; i < 4; i++ {
					dev.ResetStats()
					base.SetFault(func(op Op, id BlockID) error {
						if id == first+BlockID(i) {
							return boom
						}
						return nil
					})
					if _, err := m.read(dev, first, 4); !errors.Is(err, want) {
						t.Fatalf("fault on block %d: err = %v", i, err)
					}
					wantReads := uint64(i)
					if want == declined {
						wantReads = 0
					}
					if got := reads(dev.Stats()); got != wantReads {
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

// TestEveryDeviceTreatsFreedBlocksAsUnallocated: after Free(b), reading,
// charging and writing b fail with ErrBadBlock (a device that declines
// charges declines), charge nothing and never show b to the fault hook. A
// second Free(b) changes nothing: NumBlocks stays, and the next two Allocs
// hand out different blocks.
func TestEveryDeviceTreatsFreedBlocksAsUnallocated(t *testing.T) {
	for _, c := range devCases() {
		t.Run(c.name, func(t *testing.T) {
			dev, base := c.mk(t)
			first := devFixture(t, dev)
			b := first + 1
			dev.Free(b)
			dev.ResetStats()
			base.SetFault(func(op Op, id BlockID) error {
				if id == b {
					t.Errorf("hook saw %s of freed block %d", op, id)
				}
				return nil
			})
			if _, err := dev.Read(b); !errors.Is(err, ErrBadBlock) {
				t.Errorf("Read: %v", err)
			}
			if err := dev.ReadRunInto(b, 1, make([]byte, dev.BlockSize())); !errors.Is(err, ErrBadBlock) {
				t.Errorf("ReadRunInto: %v", err)
			}
			ok, err := dev.ChargeRun(b, 1, dev.WriteSeq())
			if chargeDeclines(dev) && (ok || err != nil) || !chargeDeclines(dev) && !errors.Is(err, ErrBadBlock) {
				t.Errorf("ChargeRun: %v, %v", ok, err)
			}
			if err := dev.Write(b, []byte("x")); !errors.Is(err, ErrBadBlock) {
				t.Errorf("Write: %v", err)
			}
			if got := dev.Stats(); got != (Stats{}) {
				t.Errorf("accesses to a freed block charged %+v", got)
			}
			base.SetFault(nil)
			n := dev.NumBlocks()
			dev.Free(b)
			if got := dev.NumBlocks(); got != n {
				t.Errorf("second Free: NumBlocks %d, want %d", got, n)
			}
			if x, y := dev.Alloc(), dev.Alloc(); x == y {
				t.Errorf("after a double free two Allocs returned block %d", x)
			}
		})
	}
}

// TestMemoryDiskKeepsNoDeadBytes: a memory-backed Disk that churns — runs
// allocated, written in full and freed, freed blocks recycled and written —
// keeps bytes for its live blocks, the 8-byte link of each freed block and
// the header, never a freed block's old contents; a zeroed block keeps none.
func TestMemoryDiskKeepsNoDeadBytes(t *testing.T) {
	const bs = DefaultBlockSize
	d := NewDisk(bs)
	mem := d.back.(*memBlocks)
	rng := rand.New(rand.NewSource(1))
	full := bytes.Repeat([]byte{0xab}, 3*bs)
	var live []BlockID
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(3)
		run := d.AllocRun(n)
		if err := d.WriteRun(run, n, full[:n*bs]); err != nil {
			t.Fatal(err)
		}
		one := d.Alloc()
		if err := d.Write(one, full[:bs]); err != nil {
			t.Fatal(err)
		}
		live = append(live, one)
		for i := 0; i < n; i++ {
			live = append(live, run+BlockID(i))
		}
		for len(live) > 20 {
			k := rng.Intn(len(live))
			d.Free(live[k])
			live = slices.Delete(live, k, k+1)
		}
	}
	if err := d.Write(live[0], make([]byte, bs)); err != nil {
		t.Fatal(err)
	}
	if img, ok := mem.blocks[int64(live[0]-1)]; ok {
		t.Errorf("a zeroed block keeps %d bytes", cap(img))
	}
	kept := 0
	for _, img := range mem.blocks {
		kept += cap(img)
	}
	freed := int(d.next-FirstBlock) - d.NumBlocks()
	if bound := d.NumBlocks()*bs + freed*8 + 32; kept > bound || freed < 200 {
		t.Fatalf("keeps %d bytes for %d live and %d freed blocks, bound %d", kept, d.NumBlocks(), freed, bound)
	}
}

// chargeDeclines reports whether dev declines every ChargeRun: checksum
// framing promises a CRC check on every read, so its caller must read.
func chargeDeclines(dev Device) bool {
	_, ok := dev.(*ChecksumDisk)
	return ok
}

// TestEveryDeviceChargesLikeItReads: single-threaded, charging
// runDevScript's four runs (a cold run, one that continues the previous
// access, a single block, never-written blocks) leaves the Stats and the
// fault hook's (op, id) sequence that reading them does. A ChecksumDisk
// declines every charge and touches neither.
func TestEveryDeviceChargesLikeItReads(t *testing.T) {
	script := func(t *testing.T, c devCase, charge bool) (Stats, []hookCall, bool) {
		dev, base := c.mk(t)
		first := devFixture(t, dev)
		at := dev.WriteSeq()
		var hooks []hookCall
		dev.ResetStats()
		base.SetFault(func(op Op, id BlockID) error {
			hooks = append(hooks, hookCall{op, id - first})
			return nil
		})
		defer base.SetFault(nil)
		dst := make([]byte, 3*dev.BlockSize())
		for _, run := range []struct{ off, n int }{{0, 3}, {3, 2}, {1, 1}, {4, 2}} {
			id := first + BlockID(run.off)
			if !charge {
				if err := dev.ReadRunInto(id, run.n, dst); err != nil {
					t.Fatalf("read %+v: %v", run, err)
				}
				continue
			}
			if ok, err := dev.ChargeRun(id, run.n, at); err != nil || ok == chargeDeclines(dev) {
				t.Fatalf("charge %+v = %v, %v", run, ok, err)
			}
		}
		return dev.Stats(), hooks, chargeDeclines(dev)
	}
	for _, c := range devCases() {
		t.Run(c.name, func(t *testing.T) {
			readStats, readHooks, _ := script(t, c, false)
			chargeStats, chargeHooks, declines := script(t, c, true)
			if declines {
				if chargeStats != (Stats{}) || len(chargeHooks) != 0 {
					t.Fatalf("declined charges charged %+v, hook saw %v", chargeStats, chargeHooks)
				}
				return
			}
			if chargeStats != readStats || !reflect.DeepEqual(chargeHooks, readHooks) {
				t.Fatalf("charging: %+v, hooks %v\nreading: %+v, hooks %v", chargeStats, chargeHooks, readStats, readHooks)
			}
		})
	}
}

// TestChargeRunFailsLikeReadRunInto: a non-positive length, a run over a
// freed block and a run past the allocation frontier give ChargeRun the
// outcome ReadRunInto has — the same error, or none — and the same charge.
func TestChargeRunFailsLikeReadRunInto(t *testing.T) {
	for _, c := range devCases() {
		t.Run(c.name, func(t *testing.T) {
			dev, _ := c.mk(t)
			first := devFixture(t, dev)
			dev.Free(first + 1)
			dst := make([]byte, 2*dev.BlockSize())
			for _, run := range []struct {
				id BlockID
				n  int
			}{{first, 0}, {first, -1}, {first, 2}, {first + 5, 2}} {
				dev.ResetStats()
				readErr := dev.ReadRunInto(run.id, run.n, dst)
				readStats := dev.Stats()
				dev.ResetStats()
				ok, err := dev.ChargeRun(run.id, run.n, dev.WriteSeq())
				if chargeDeclines(dev) {
					if ok || err != nil || dev.Stats() != (Stats{}) {
						t.Fatalf("run %+v: declining device: %v, %v, charged %+v", run, ok, err, dev.Stats())
					}
					continue
				}
				if fmt.Sprint(err) != fmt.Sprint(readErr) || ok != (readErr == nil) || dev.Stats() != readStats {
					t.Errorf("run %+v: charge %v, %v, %+v; read %v, %+v", run, ok, err, dev.Stats(), readErr, readStats)
				}
				if run.n <= 0 && err == nil {
					t.Errorf("run %+v accepted", run)
				}
			}
		})
	}
}

// TestChargeRunHonoursWriteStamps: a charge at a write sequence succeeds
// while no block of its run has changed since, and never once a Write,
// WriteRun, recycling Alloc or Free has touched one of them; untouched
// neighbours still charge.
func TestChargeRunHonoursWriteStamps(t *testing.T) {
	ops := []struct {
		name   string
		before func(dev Device, b BlockID) // runs before the sequence is taken
		touch  func(dev Device, b BlockID) error
	}{
		{"Write", nil, func(dev Device, b BlockID) error { return dev.Write(b, []byte("new")) }},
		{"WriteRun", nil, func(dev Device, b BlockID) error { return dev.WriteRun(b, 2, []byte("new")) }},
		{"Alloc", func(dev Device, b BlockID) { dev.Free(b) }, func(dev Device, b BlockID) error {
			if got := dev.Alloc(); got != b {
				return fmt.Errorf("Alloc recycled %d, want %d", got, b)
			}
			return nil
		}},
		{"Free", nil, func(dev Device, b BlockID) error { dev.Free(b); return nil }},
	}
	for _, c := range devCases() {
		for _, op := range ops {
			t.Run(c.name+"/"+op.name, func(t *testing.T) {
				dev, _ := c.mk(t)
				first := devFixture(t, dev)
				touched := first + 2
				if op.before != nil {
					op.before(dev, touched)
				}
				at := dev.WriteSeq()
				if err := op.touch(dev, touched); err != nil {
					t.Fatal(err)
				}
				if dev.WriteSeq() <= at {
					t.Fatalf("%s did not advance the write sequence past %d", op.name, at)
				}
				ok, err := dev.ChargeRun(first+1, 3, at)
				if ok {
					t.Fatalf("charged a run over block %d after %s", touched, op.name)
				}
				if err != nil && op.name != "Free" {
					t.Fatalf("charge after %s: %v", op.name, err)
				}
				for _, off := range []BlockID{0, 4} {
					ok, err := dev.ChargeRun(first+off, 2, at)
					if err != nil || ok == chargeDeclines(dev) {
						t.Errorf("untouched run at %d after %s: %v, %v", off, op.name, ok, err)
					}
				}
			})
		}
	}
}

// TestFileDiskStampsStartClean: stamps are not persisted, so a reopened
// device charges every block at sequence zero until it writes one.
func TestFileDiskStampsStartClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.db")
	d, err := CreateFileDisk(path, devTestBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	first := devFixture(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if seq := r.WriteSeq(); seq != 0 {
		t.Fatalf("reopened device at write sequence %d", seq)
	}
	if ok, err := r.ChargeRun(first, 6, 0); !ok || err != nil {
		t.Fatalf("charge on a reopened device: %v, %v", ok, err)
	}
	if err := r.Write(first+5, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if ok, err := r.ChargeRun(first, 6, 0); ok || err != nil {
		t.Fatalf("charge after a write: %v, %v", ok, err)
	}
}

// TestFileDiskStampsStayBounded: a header that claims far more blocks than
// the file holds cannot make the stamps cost 8 bytes per claimed block, and
// a write out there still declines a charge taken before it.
func TestFileDiskStampsStayBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.db")
	if err := writeFile(path, fileDiskHeader(devTestBlockSize, 1<<22, 0, 0)); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	far := d.Alloc()
	at := d.WriteSeq()
	if err := d.Write(far, []byte("far")); err != nil {
		t.Fatal(err)
	}
	if len(d.stamps) > stampSlack {
		t.Fatalf("one write to block %d grew the stamps to %d entries", far, len(d.stamps))
	}
	if ok, err := d.ChargeRun(far, 1, at); ok || err != nil {
		t.Fatalf("charge from before the write: %v, %v", ok, err)
	}
	if ok, err := d.ChargeRun(far, 1, d.WriteSeq()); !ok || err != nil {
		t.Fatalf("charge from after the write: %v, %v", ok, err)
	}
}

// TestFaultDeviceChargeKeepsPlannedOrdinals: while a plan arms any read-side
// fault, ChargeRun declines without counting, so a planned fault fires on
// the read it names; with a clean plan a charge counts its blocks as reads.
func TestFaultDeviceChargeKeepsPlannedOrdinals(t *testing.T) {
	fd := NewFaultDevice(NewDisk(devTestBlockSize), FaultPlan{})
	first := devFixture(t, fd)
	for _, plan := range []FaultPlan{
		{FailReadAt: []uint64{1}},
		{FailReadBlocks: []BlockID{first + 5}},
		{FlipReadAt: []uint64{1}},
		{FlipBlocks: []BlockID{first + 5}},
		{MaxBlocks: 100},
	} {
		fd.SetPlan(plan)
		if ok, err := fd.ChargeRun(first, 2, fd.WriteSeq()); ok || err != nil {
			t.Fatalf("plan %+v: charge %v, %v", plan, ok, err)
		}
		if fd.reads != 0 || reads(fd.Stats()) != 0 {
			t.Fatalf("plan %+v: declined charge counted %d reads, charged %d", plan, fd.reads, reads(fd.Stats()))
		}
	}
	fd.SetPlan(FaultPlan{})
	if ok, err := fd.ChargeRun(first, 2, fd.WriteSeq()); !ok || err != nil {
		t.Fatalf("clean plan: charge %v, %v", ok, err)
	}
	fd.SetPlan(FaultPlan{FailReadAt: []uint64{3}})
	var fe *FaultError
	if err := fd.ReadRunInto(first, 1, make([]byte, devTestBlockSize)); !errors.As(err, &fe) || fe.Kind != KindReadError {
		t.Fatalf("third read after a two-block charge: %v, want the planned read error", err)
	}
}

// TestFileDiskConcurrentReads runs 8 readers × 2,000 random runs beside a
// writer. Readers check a stable region byte for byte, and the writer's
// region for torn blocks (the writer fills a block with one value, so a
// block holding two values is half of a write), then charge each run at the
// write sequence taken before reading it; the total charged equals the
// blocks read plus the blocks charged exactly — only the random/sequential
// split may depend on the schedule. Run with -race.
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
				at := d.WriteSeq()
				if err := d.ReadRunInto(first+BlockID(off), n, dst); err != nil {
					t.Errorf("read %d+%d: %v", off, n, err)
					return
				}
				// Charge the run just read, as a warm node visit would: the
				// stable region is never written, so it always charges.
				ok, err := d.ChargeRun(first+BlockID(off), n, at)
				if err != nil || (!ok && off+n <= stable) {
					t.Errorf("charge %d+%d: %v, %v", off, n, ok, err)
					return
				}
				if ok {
					requested.Add(uint64(n))
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
	if got, want := reads(d.Stats()), requested.Load(); got != want {
		t.Errorf("charged %d block reads for %d requested", got, want)
	}
}

// BenchmarkDiskReadRunInto times the device read every cold node load,
// every checksummed node visit and every object load pays, on both
// backings: a 1-block run (an object row, a one-block node) and a 3-block
// run (an IR²-Tree node with 64-byte signatures), into one reused buffer.
// The file is page-cache warm.
func BenchmarkDiskReadRunInto(b *testing.B) {
	for _, backing := range []string{"memory", "file"} {
		d, first := benchDisk(b, backing)
		for _, n := range []int{1, 3} {
			b.Run(fmt.Sprintf("%s/blocks=%d", backing, n), func(b *testing.B) {
				dst := make([]byte, n*DefaultBlockSize)
				b.SetBytes(int64(len(dst)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := d.ReadRunInto(first+BlockID(i*7%(benchBlocks-n)), n, dst); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDiskChargeRun times what a warm node visit pays instead when its
// pinned image is current: the same runs as BenchmarkDiskReadRunInto charged
// at the device's write sequence — stamp check, admission and accounting,
// no backing read.
func BenchmarkDiskChargeRun(b *testing.B) {
	for _, backing := range []string{"memory", "file"} {
		d, first := benchDisk(b, backing)
		at := d.WriteSeq()
		for _, n := range []int{1, 3} {
			b.Run(fmt.Sprintf("%s/blocks=%d", backing, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if ok, err := d.ChargeRun(first+BlockID(i*7%(benchBlocks-n)), n, at); !ok || err != nil {
						b.Fatal(ok, err)
					}
				}
			})
		}
	}
}

const benchBlocks = 300

// benchDisk returns a Disk on the named backing ("memory" or "file")
// holding benchBlocks written blocks from first.
func benchDisk(b *testing.B, backing string) (*Disk, BlockID) {
	d := NewDisk(DefaultBlockSize)
	if backing == "file" {
		var err error
		if d, err = CreateFileDisk(filepath.Join(b.TempDir(), "disk.db"), DefaultBlockSize); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(func() { d.Close() })
	first := d.AllocRun(benchBlocks)
	if err := d.WriteRun(first, benchBlocks, bytes.Repeat([]byte{7}, benchBlocks*DefaultBlockSize)); err != nil {
		b.Fatal(err)
	}
	return d, first
}
