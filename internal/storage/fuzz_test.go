package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzChecksumRoundTrip drives the checksum framing with arbitrary payloads
// and arbitrary raw-frame corruption. The contract under fuzz:
//
//   - an uncorrupted frame always reads back as the written payload;
//   - a corrupted frame either fails with *CorruptBlockError naming the
//     block, or — if the mutation happens to produce another valid frame
//     (an exact CRC collision, or the all-zero "never written" frame) —
//     decodes to something self-consistent;
//   - nothing ever panics.
func FuzzChecksumRoundTrip(f *testing.F) {
	f.Add([]byte("hello spatial world"), []byte{0x01}, uint32(0))
	f.Add([]byte{}, []byte{0xff, 0xff, 0xff, 0xff}, uint32(3))
	f.Add(bytes.Repeat([]byte{0xaa}, 124), []byte{0x80}, uint32(123))
	f.Add([]byte("q"), []byte{}, uint32(7))
	f.Fuzz(func(t *testing.T, payload, patch []byte, off uint32) {
		under := NewDisk(128)
		cd := NewChecksumDisk(under)
		bs := cd.BlockSize()
		if len(payload) > bs {
			payload = payload[:bs]
		}
		id := cd.Alloc()
		if err := cd.Write(id, payload); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := cd.Read(id)
		if err != nil {
			t.Fatalf("clean read: %v", err)
		}
		if !bytes.Equal(got[:len(payload)], payload) {
			t.Fatalf("roundtrip mismatch: wrote %x, read %x", payload, got[:len(payload)])
		}
		for i, b := range got[len(payload):] {
			if b != 0 {
				t.Fatalf("padding byte %d = %#x, want 0", len(payload)+i, b)
			}
		}

		// Corrupt the raw frame underneath the checksum layer.
		raw, err := under.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		changed := false
		for i, b := range patch {
			if b == 0 {
				continue
			}
			raw[(int(off)+i)%len(raw)] ^= b
			changed = true
		}
		if err := under.Write(id, raw); err != nil {
			t.Fatal(err)
		}

		got2, err := cd.Read(id)
		if !changed {
			if err != nil || !bytes.Equal(got2[:len(payload)], payload) {
				t.Fatalf("no-op patch broke the frame: %v", err)
			}
			return
		}
		if err != nil {
			var ce *CorruptBlockError
			if !errors.As(err, &ce) {
				t.Fatalf("corruption error not typed: %v", err)
			}
			if ce.Block != id {
				t.Fatalf("corruption reported block %d, corrupted %d", ce.Block, id)
			}
			return
		}
		// The read passed despite a changed frame: it must be because the
		// frame is still valid on its own terms — all-zero, or payload and
		// trailer mutated into a consistent pair. Never a torn half-read.
		reencoded := make([]byte, len(raw))
		cd.encode(reencoded, got2)
		if !bytes.Equal(reencoded, raw) && !allZero(raw) {
			t.Fatalf("corrupt frame decoded silently:\nframe: %x\npayload: %x", raw, got2)
		}
	})
}

// FuzzChecksumRunRoundTrip covers the multi-block run framing the index
// substrates use for node and posting regions.
func FuzzChecksumRunRoundTrip(f *testing.F) {
	f.Add([]byte("run payload spanning blocks run payload spanning blocks"), uint32(1), []byte{0x04})
	f.Add(bytes.Repeat([]byte{7}, 300), uint32(2), []byte{0xff})
	f.Fuzz(func(t *testing.T, payload []byte, nRaw uint32, patch []byte) {
		under := NewDisk(96)
		cd := NewChecksumDisk(under)
		bs := cd.BlockSize()
		n := int(nRaw)%4 + 1
		if len(payload) > n*bs {
			payload = payload[:n*bs]
		}
		id := cd.AllocRun(n)
		if err := cd.WriteRun(id, n, payload); err != nil {
			t.Fatalf("write run: %v", err)
		}
		got, err := cd.ReadRun(id, n)
		if err != nil {
			t.Fatalf("clean read run: %v", err)
		}
		if !bytes.Equal(got[:len(payload)], payload) {
			t.Fatal("run roundtrip mismatch")
		}

		changed := false
		for i, b := range patch {
			if b == 0 {
				continue
			}
			blk := id + BlockID(i%n)
			raw, err := under.Read(blk)
			if err != nil {
				t.Fatal(err)
			}
			raw[(i*13)%len(raw)] ^= b
			if err := under.Write(blk, raw); err != nil {
				t.Fatal(err)
			}
			changed = true
		}
		if !changed {
			return
		}
		if _, err := cd.ReadRun(id, n); err != nil {
			var ce *CorruptBlockError
			if !errors.As(err, &ce) {
				t.Fatalf("run corruption error not typed: %v", err)
			}
			if ce.Block < id || ce.Block >= id+BlockID(n) {
				t.Fatalf("corruption reported block %d outside run [%d,%d)", ce.Block, id, id+BlockID(n))
			}
		}
	})
}

// FuzzChargeRunStamps runs a random program of allocations, writes, run
// writes, frees, snapshot reads and charges against each device
// composition, beside a model that records which op last changed each
// block. A snapshot is a run read at the sequence WriteSeq returned just
// before; a later charge of it must
//
//   - never succeed if any block of the run was written, freed or recycled
//     since the snapshot, and, when it succeeds, the run still reads as the
//     snapshot's bytes;
//   - succeed, on a device that does not decline charges, if none was.
func FuzzChargeRunStamps(f *testing.F) {
	f.Add([]byte{0, 0, 35, 41, 14, 41, 0, 28, 42, 4, 5})
	f.Add([]byte{7, 7, 5, 12, 3, 6, 1, 19, 6, 26, 34, 48, 13, 20})
	f.Add([]byte{21, 21, 32, 46, 4, 39, 53, 8, 15, 22, 29})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		for _, c := range devCases() {
			runChargeProgram(t, c, prog)
		}
	})
}

type chargeSnapshot struct {
	id   BlockID
	n    int
	at   uint64
	op   int // index of the op that took it
	data []byte
}

func runChargeProgram(t *testing.T, c devCase, prog []byte) {
	dev, _ := c.mk(t)
	bs := dev.BlockSize()
	var (
		live    []BlockID // allocated, not freed: candidates for every op
		isLive  = map[BlockID]bool{}
		changed = map[BlockID]int{} // block → index of the last op that changed it
		snaps   []chargeSnapshot
	)
	// liveRun returns the longest run of at most n live blocks from id.
	liveRun := func(id BlockID, n int) int {
		k := 0
		for k < n && isLive[id+BlockID(k)] {
			k++
		}
		return k
	}
	for i, b := range prog {
		arg := int(b / 7)
		pick := func() (BlockID, bool) {
			if len(live) == 0 {
				return 0, false
			}
			return live[arg%len(live)], true
		}
		switch b % 7 {
		case 0: // fresh run
			n := 1 + arg%3
			id := dev.AllocRun(n)
			for k := 0; k < n; k++ {
				live, isLive[id+BlockID(k)] = append(live, id+BlockID(k)), true
			}
		case 1: // one block, recycled when the free list has one
			id := dev.Alloc()
			live, isLive[id] = append(live, id), true
			changed[id] = i
		case 2:
			if id, ok := pick(); ok {
				if err := dev.Write(id, bytes.Repeat([]byte{b}, 1+arg%bs)); err != nil {
					t.Fatalf("%s: write %d: %v", c.name, id, err)
				}
				changed[id] = i
			}
		case 3:
			if id, ok := pick(); ok {
				n := liveRun(id, 1+arg%3)
				if err := dev.WriteRun(id, n, bytes.Repeat([]byte{b}, n*bs-arg%bs)); err != nil {
					t.Fatalf("%s: write run %d+%d: %v", c.name, id, n, err)
				}
				for k := 0; k < n; k++ {
					changed[id+BlockID(k)] = i
				}
			}
		case 4:
			if id, ok := pick(); ok {
				dev.Free(id)
				live = slices.DeleteFunc(live, func(x BlockID) bool { return x == id })
				delete(isLive, id)
				changed[id] = i
			}
		case 5: // snapshot
			if id, ok := pick(); ok {
				n := liveRun(id, 1+arg%3)
				at := dev.WriteSeq()
				data, err := dev.ReadRun(id, n)
				if err != nil {
					t.Fatalf("%s: read %d+%d: %v", c.name, id, n, err)
				}
				snaps = append(snaps, chargeSnapshot{id: id, n: n, at: at, op: i, data: data})
			}
		case 6: // charge
			if len(snaps) == 0 {
				continue
			}
			s := snaps[arg%len(snaps)]
			stale := false
			for k := 0; k < s.n; k++ {
				if changed[s.id+BlockID(k)] > s.op {
					stale = true
				}
			}
			ok, err := dev.ChargeRun(s.id, s.n, s.at)
			if ok && stale {
				t.Fatalf("%s: op %d charged %d+%d at %d although a block changed after op %d", c.name, i, s.id, s.n, s.at, s.op)
			}
			if ok {
				now, rerr := dev.ReadRun(s.id, s.n)
				if rerr != nil || !bytes.Equal(now, s.data) {
					t.Fatalf("%s: op %d charged %d+%d but the run no longer reads as the snapshot (%v)", c.name, i, s.id, s.n, rerr)
				}
			}
			if !stale && !chargeDeclines(dev) && (!ok || err != nil) {
				t.Fatalf("%s: op %d: unchanged run %d+%d at %d: %v, %v", c.name, i, s.id, s.n, s.at, ok, err)
			}
		}
	}
}

// FuzzOpenFileDisk feeds arbitrary bytes to OpenFileDisk as a device file.
// The contract: open either refuses the file, or the device it returns has
// a sane block size and every Alloc, Read and ReadRunInto of an in-range
// block returns — no panic, no buffer beyond the run that was asked for,
// and every byte of the caller's scratch overwritten.
func FuzzOpenFileDisk(f *testing.F) {
	valid := append(fileDiskHeader(64, 5, 3, 2), make([]byte, 4*64-32)...)
	copy(valid[64:], "block two")
	f.Add(valid)
	f.Add(fileDiskHeader(0x7fffffff, 5, 0, 3))
	f.Add(fileDiskHeader(64, 1, 0, 0))
	f.Add(fileDiskHeader(64, 5, 9, 3))
	f.Add(fileDiskHeader(64, 5, 0, 1<<40))
	f.Fuzz(func(t *testing.T, file []byte) {
		path := filepath.Join(t.TempDir(), "disk.db")
		if err := writeFile(path, file); err != nil {
			t.Fatal(err)
		}
		d, err := OpenFileDisk(path)
		if err != nil {
			return
		}
		defer d.back.Close()
		bs := d.BlockSize()
		if bs < MinBlockSize || bs > MaxBlockSize {
			t.Fatalf("opened with block size %d", bs)
		}
		fresh := d.Alloc()
		scratch := bytes.Repeat([]byte{0xff}, 3*bs)
		for _, id := range []BlockID{FirstBlock, fresh, d.next - 1} {
			if !d.inRange(id) {
				t.Fatalf("Alloc or the header produced out-of-range block %d (next %d)", id, d.next)
			}
			blk, err := d.Read(id)
			if err == nil && len(blk) != bs {
				t.Fatalf("Read(%d) returned %d bytes, block size %d", id, len(blk), bs)
			}
			n := 3
			if room := int(d.next - id); room < n {
				n = room
			}
			for i := range scratch {
				scratch[i] = 0xff
			}
			if err := d.ReadRunInto(id, n, scratch); err != nil {
				continue
			}
			// Whatever part of the run lies past the file's end reads as
			// zeros, not as the scratch's previous contents.
			fi, err := d.back.(*os.File).Stat()
			if err != nil {
				t.Fatal(err)
			}
			inFile := fi.Size() - d.offset(id)
			if inFile < 0 {
				inFile = 0
			}
			if inFile < int64(n*bs) && !allZero(scratch[inFile:n*bs]) {
				t.Fatalf("run %d+%d: bytes past the file end are not zero", id, n)
			}
		}
	})
}
