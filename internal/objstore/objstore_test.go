package objstore

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
)

func newStore(blockSize int) (*Store, *storage.Disk) {
	d := storage.NewDisk(blockSize)
	return New(d), d
}

func TestAppendGetRoundTrip(t *testing.T) {
	s, _ := newStore(128)
	type row struct {
		p    geo.Point
		text string
	}
	rows := []row{
		{geo.NewPoint(25.4, -80.1), "Hotel A tennis court, gift shop, spa, Internet"},
		{geo.NewPoint(47.3, -122.2), "Hotel B wireless Internet, pool, golf course"},
		{geo.NewPoint(-33.2, -70.4), "Hotel G Internet, airport transportation, pool"},
	}
	var ptrs []Ptr
	for _, r := range rows {
		id, ptr, _ := s.Append(r.p, r.text)
		if int(id) != len(ptrs) {
			t.Fatalf("id = %d, want %d", id, len(ptrs))
		}
		ptrs = append(ptrs, ptr)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		obj, err := s.Get(ptrs[i])
		if err != nil {
			t.Fatalf("Get(%d): %v", ptrs[i], err)
		}
		if obj.ID != ID(i) || !obj.Point.Equal(r.p) || obj.Text != r.text {
			t.Errorf("object %d = %+v, want %+v", i, obj, r)
		}
		byID, err := s.GetByID(ID(i))
		if err != nil {
			t.Fatal(err)
		}
		if byID.Text != r.text {
			t.Errorf("GetByID mismatch")
		}
	}
}

func TestGetBeforeSyncFails(t *testing.T) {
	s, _ := newStore(128)
	_, ptr, _ := s.Append(geo.NewPoint(1, 2), "tiny")
	if _, err := s.Get(ptr); !errors.Is(err, ErrNotSynced) {
		t.Errorf("err = %v, want ErrNotSynced", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ptr); err != nil {
		t.Errorf("after sync: %v", err)
	}
}

func TestMultiBlockRow(t *testing.T) {
	s, d := newStore(64)
	long := strings.Repeat("amenity ", 50) // ~400 bytes, spans many 64-byte blocks
	_, ptr, _ := s.Append(geo.NewPoint(0, 0), long)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	obj, err := s.Get(ptr)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Text != long {
		t.Error("long text corrupted")
	}
	st := d.Stats()
	if st.RandomReads != 1 {
		t.Errorf("random reads = %d, want 1", st.RandomReads)
	}
	if st.SequentialReads < 5 {
		t.Errorf("sequential reads = %d, want >= 5 for a %d-byte row", st.SequentialReads, len(long))
	}
	if got := s.AvgBlocksPerObject(); got < 6 {
		t.Errorf("AvgBlocksPerObject = %g, want >= 6", got)
	}
}

func TestRowSpanningSyncBoundary(t *testing.T) {
	// A row partially flushed by full-block flushing but not synced must
	// report ErrNotSynced, then read fine after Sync.
	s, _ := newStore(64)
	_, p1, _ := s.Append(geo.NewPoint(1, 1), strings.Repeat("x", 100))
	if _, err := s.Get(p1); !errors.Is(err, ErrNotSynced) {
		t.Errorf("err = %v, want ErrNotSynced", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	obj, err := s.Get(p1)
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.Text) != 100 {
		t.Errorf("text length %d", len(obj.Text))
	}
}

// TestAppendAfterSync pins the open-block contract: Sync leaves the block
// open, so the next row packs right after the synced one and the next Sync
// rewrites the same device block; only Checkpoint seals, so the row after
// it starts a block; and a reopened store goes on appending.
func TestAppendAfterSync(t *testing.T) {
	s, d := newStore(64)
	_, p1, _ := s.Append(geo.NewPoint(1, 1), "first")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	blocks := d.NumBlocks()
	_, p2, _ := s.Append(geo.NewPoint(2, 2), "second")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if want := p1 + Ptr(len(encodeRow(0, geo.NewPoint(1, 1), "first"))); p2 != want {
		t.Errorf("row after Sync at %d, want %d (packed after the first)", p2, want)
	}
	if p2/64 != p1/64 || len(s.blocks) != 1 {
		t.Errorf("rows at %d and %d over %d file blocks, want one shared block", p1, p2, len(s.blocks))
	}
	if got := d.NumBlocks(); got != blocks {
		t.Errorf("second Sync allocated: %d device blocks, was %d", got, blocks)
	}
	meta, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if s.synced%64 != 0 {
		t.Errorf("checkpointed store synced %d bytes, want a block boundary", s.synced)
	}
	_, p3, _ := s.Append(geo.NewPoint(3, 3), "third")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if p3%64 != 0 {
		t.Errorf("row after Checkpoint not block aligned: %d", p3)
	}
	type row struct {
		ptr  Ptr
		text string
	}
	check := func(s *Store, rows ...row) {
		t.Helper()
		for _, r := range rows {
			obj, err := s.Get(r.ptr)
			if err != nil {
				t.Fatal(err)
			}
			if obj.Text != r.text {
				t.Errorf("Get(%d).Text = %q, want %q", r.ptr, obj.Text, r.text)
			}
		}
	}
	check(s, row{p1, "first"}, row{p2, "second"}, row{p3, "third"})

	r, err := Open(d, meta)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumObjects() != 2 {
		t.Fatalf("reopened NumObjects = %d, want 2", r.NumObjects())
	}
	id, p4, err := r.Append(geo.NewPoint(4, 4), "fourth")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	if id != 2 || p4%64 != 0 {
		t.Errorf("append after Open: id %d at %d, want id 2 on a block boundary", id, p4)
	}
	check(r, row{p1, "first"}, row{p2, "second"}, row{p4, "fourth"})
}

func TestSanitization(t *testing.T) {
	s, _ := newStore(128)
	_, ptr, _ := s.Append(geo.NewPoint(0, 0), "tabs\tand\nnewlines\r!")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	obj, err := s.Get(ptr)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Text != "tabs and newlines !" {
		t.Errorf("sanitized text = %q", obj.Text)
	}
}

func TestScan(t *testing.T) {
	s, _ := newStore(64)
	const n = 20
	for i := 0; i < n; i++ {
		s.Append(geo.NewPoint(float64(i), 0), fmt.Sprintf("object number %d", i))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	var seen int
	err := s.Scan(func(o Object, p Ptr) error {
		if int(o.ID) != seen {
			return fmt.Errorf("out of order: %d at position %d", o.ID, seen)
		}
		if o.Point[0] != float64(seen) {
			return fmt.Errorf("bad point for %d", seen)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Errorf("scanned %d, want %d", seen, n)
	}
	// Early stop.
	count := 0
	stop := errors.New("stop")
	err = s.Scan(func(Object, Ptr) error {
		count++
		if count == 5 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || count != 5 {
		t.Errorf("early stop: err=%v count=%d", err, count)
	}
}

func TestScanUnsyncedFails(t *testing.T) {
	s, _ := newStore(64)
	s.Append(geo.NewPoint(0, 0), "x")
	if err := s.Scan(func(Object, Ptr) error { return nil }); !errors.Is(err, ErrNotSynced) {
		t.Errorf("err = %v, want ErrNotSynced", err)
	}
}

func TestGetByIDOutOfRange(t *testing.T) {
	s, _ := newStore(64)
	if _, err := s.GetByID(0); err == nil {
		t.Error("expected error for empty store")
	}
}

func TestCorruptRow(t *testing.T) {
	s, d := newStore(64)
	_, ptr, _ := s.Append(geo.NewPoint(1, 2), "fine")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Overwrite the row's block with garbage that still has a newline.
	blk := s.blocks[0]
	if err := d.Write(blk, []byte("not\ta\tvalid\trow\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ptr); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRowErrors(t *testing.T) {
	tests := []struct {
		name string
		row  string
	}{
		{"too few fields", "1\t2"},
		{"bad id", "abc\t2\t1\t2\ttext"},
		{"bad dim", "1\tx\t1\t2\ttext"},
		{"dim mismatch", "1\t3\t1\t2\ttext"},
		{"bad coord", "1\t2\t1\tzz\ttext"},
		{"negative dim", "1\t-1\ttext"},
		{"signed dim", "1\t+2\t1\t2\ttext"},
		{"negative zero dim", "1\t-0\ttext"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := decodeRow([]byte(tt.row)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("decodeRow(%q) err = %v, want ErrCorrupt", tt.row, err)
			}
		})
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		dim := 1 + rng.Intn(4)
		p := make(geo.Point, dim)
		for j := range p {
			p[j] = rng.NormFloat64() * 100
		}
		text := fmt.Sprintf("random text %d with words %d", rng.Int63(), rng.Int63())
		row := encodeRow(ID(i), p, text)
		obj, err := decodeRow(row[:len(row)-1]) // strip newline
		if err != nil {
			t.Fatalf("decode failed: %v", err)
		}
		if obj.ID != ID(i) || !obj.Point.Equal(p) || obj.Text != text {
			t.Fatalf("round trip mismatch: %+v", obj)
		}
	}
}

func TestReadFaultPropagates(t *testing.T) {
	s, d := newStore(64)
	_, ptr, _ := s.Append(geo.NewPoint(1, 1), "x")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("io fault")
	d.SetFault(func(op storage.Op, id storage.BlockID) error {
		if op == storage.OpRead {
			return boom
		}
		return nil
	})
	if _, err := s.Get(ptr); !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped fault", err)
	}
}

// TestRunReadFaultOnSecondBlock fails the second block of a two-block row —
// a device read fault, a fault plan's, and a flipped bit under checksum
// framing — and requires the run read's error to be the block-at-a-time
// read's, naming that block.
func TestRunReadFaultOnSecondBlock(t *testing.T) {
	const bs = 64
	setup := func(t *testing.T, dev storage.Device) (*Store, Ptr, storage.BlockID) {
		s := New(dev)
		if _, _, err := s.Append(geo.NewPoint(1, 2), "x"); err != nil {
			t.Fatal(err)
		}
		_, ptr, err := s.Append(geo.NewPoint(3, 4), strings.Repeat("two block row ", 5))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		bsz := uint64(s.dev.BlockSize())
		first := uint64(ptr) / bsz
		if end := s.rowEnd(1); (end-1)/bsz != first+1 || s.blocks[first+1] != s.blocks[first]+1 {
			t.Fatalf("row at %d..%d is not on two consecutive blocks of %d", ptr, end, bsz)
		}
		return s, ptr, s.blocks[first+1]
	}
	check := func(t *testing.T, s *Store, ptr Ptr, bad storage.BlockID, arm func()) {
		t.Helper()
		arm()
		_, want := readBlockwise(s, ptr)
		arm()
		_, got := s.Get(ptr)
		arm()
		_, gotByID := s.GetByID(1)
		if want == nil || got == nil || got.Error() != want.Error() || gotByID.Error() != want.Error() {
			t.Fatalf("Get: %v, GetByID: %v; block at a time: %v", got, gotByID, want)
		}
		var fe *storage.FaultError
		var ce *storage.CorruptBlockError
		switch {
		case errors.As(got, &fe) && fe.Block == bad:
		case errors.As(got, &ce) && ce.Block == bad:
		default:
			t.Fatalf("error %v does not name block %d", got, bad)
		}
	}
	t.Run("device", func(t *testing.T) {
		d := storage.NewDisk(bs)
		s, ptr, bad := setup(t, d)
		check(t, s, ptr, bad, func() {
			d.SetFault(func(op storage.Op, id storage.BlockID) error {
				if op == storage.OpRead && id == bad {
					return &storage.FaultError{Kind: storage.KindReadError, Op: op, Block: id}
				}
				return nil
			})
		})
	})
	t.Run("plan", func(t *testing.T) {
		fd := storage.NewFaultDevice(storage.NewDisk(bs), storage.FaultPlan{})
		s, ptr, bad := setup(t, fd)
		check(t, s, ptr, bad, func() { fd.SetPlan(storage.FaultPlan{FailReadBlocks: []storage.BlockID{bad}}) })
	})
	t.Run("checksum", func(t *testing.T) {
		fd := storage.NewFaultDevice(storage.NewDisk(bs), storage.FaultPlan{})
		s, ptr, bad := setup(t, storage.NewChecksumDisk(fd))
		check(t, s, ptr, bad, func() { fd.SetPlan(storage.FaultPlan{Seed: 7, FlipBlocks: []storage.BlockID{bad}}) })
	})
}

// TestSyncFaultPropagates fails the Sync that allocates the open block and
// the one that rewrites it, on a plain disk and under checksum framing: each
// failure surfaces, leaves earlier rows readable, and a retry succeeds.
func TestSyncFaultPropagates(t *testing.T) {
	for _, checksums := range []bool{false, true} {
		t.Run(fmt.Sprintf("checksums=%v", checksums), func(t *testing.T) {
			d := storage.NewDisk(64)
			var dev storage.Device = d
			if checksums {
				dev = storage.NewChecksumDisk(d)
			}
			s := New(dev)
			boom := errors.New("write fault")
			failingSync := func() {
				t.Helper()
				d.SetFault(func(op storage.Op, id storage.BlockID) error {
					if op == storage.OpWrite {
						return boom
					}
					return nil
				})
				if err := s.Sync(); !errors.Is(err, boom) {
					t.Errorf("err = %v, want wrapped fault", err)
				}
				// Clearing the fault allows a retry to succeed.
				d.SetFault(nil)
			}
			readBack := func(ptr Ptr, text string) {
				t.Helper()
				if obj, err := s.Get(ptr); err != nil || obj.Text != text {
					t.Errorf("Get(%d) = %q, %v; want %q", ptr, obj.Text, err, text)
				}
			}

			_, p1, _ := s.Append(geo.NewPoint(1, 1), "x")
			failingSync() // allocates the open block
			if d.NumBlocks() != 0 {
				t.Errorf("failed first Sync kept %d device blocks", d.NumBlocks())
			}
			if err := s.Sync(); err != nil {
				t.Errorf("retry failed: %v", err)
			}
			readBack(p1, "x")

			_, p2, _ := s.Append(geo.NewPoint(2, 2), "y")
			failingSync() // rewrites it
			readBack(p1, "x")
			if _, err := s.Get(p2); !errors.Is(err, ErrNotSynced) {
				t.Errorf("row of the failed rewrite: err = %v, want ErrNotSynced", err)
			}
			if err := s.Sync(); err != nil {
				t.Errorf("retry of the rewrite failed: %v", err)
			}
			readBack(p1, "x")
			readBack(p2, "y")
			if d.NumBlocks() != 1 {
				t.Errorf("two rows over %d device blocks, want 1", d.NumBlocks())
			}
		})
	}
}

func TestSizeAccounting(t *testing.T) {
	s, _ := newStore(4096)
	if s.SizeBytes() != 0 || s.NumObjects() != 0 {
		t.Error("empty store size/count")
	}
	for i := 0; i < 100; i++ {
		s.Append(geo.NewPoint(float64(i), float64(i)), strings.Repeat("word ", 20))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.NumObjects() != 100 {
		t.Errorf("NumObjects = %d", s.NumObjects())
	}
	if s.SizeBytes() <= 0 || s.SizeMB() != float64(s.SizeBytes())/1e6 {
		t.Error("size accounting inconsistent")
	}
	if avg := s.AvgBlocksPerObject(); avg < 1 {
		t.Errorf("AvgBlocksPerObject = %g", avg)
	}
}

// newFilteredFixture builds a synced store over a mix of single- and
// multi-block rows plus an empty-text row.
func newFilteredFixture(t *testing.T) (*Store, *storage.Disk, []Ptr) {
	t.Helper()
	s, d := newStore(128)
	texts := []string{
		"pizza cafe downtown",
		strings.Repeat("pool ocean view suite wifi ", 20), // spans blocks
		"",
		"CAFE Pizza pizza",
	}
	var ptrs []Ptr
	for i, text := range texts {
		_, ptr, err := s.Append(geo.NewPoint(float64(i), float64(-i)), text)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, ptr)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	return s, d, ptrs
}

// TestGetFilteredMatchesGet is the differential oracle for the filtered
// loader: with an accept-everything filter, every row must come back
// identical to Get's object AND with identical device accounting — the
// filtered path exists to cut allocations, never I/O.
func TestGetFilteredMatchesGet(t *testing.T) {
	s, d, ptrs := newFilteredFixture(t)
	var sc RowScratch
	for i, ptr := range ptrs {
		d.ResetStats()
		want, err := s.Get(ptr)
		if err != nil {
			t.Fatal(err)
		}
		wantStats := d.Stats()
		d.ResetStats()
		var seen string
		got, ok, err := s.GetFiltered(ptr, &sc, func(text []byte) bool {
			seen = string(text)
			return true
		})
		if err != nil || !ok {
			t.Fatalf("row %d: GetFiltered ok=%v err=%v", i, ok, err)
		}
		if gotStats := d.Stats(); gotStats != wantStats {
			t.Errorf("row %d: device stats differ: Get %+v, GetFiltered %+v", i, wantStats, gotStats)
		}
		if got.ID != want.ID || !got.Point.Equal(want.Point) || got.Text != want.Text {
			t.Errorf("row %d: GetFiltered %+v, Get %+v", i, got, want)
		}
		if seen != want.Text {
			t.Errorf("row %d: accept saw %q, text is %q", i, seen, want.Text)
		}
	}
}

// TestGetFilteredReject checks a rejected candidate is skipped without an
// object and that the returned text still reaches the filter on reuse of
// the same scratch (no cross-row contamination).
func TestGetFilteredReject(t *testing.T) {
	s, d, ptrs := newFilteredFixture(t)
	var sc RowScratch
	d.ResetStats()
	obj, ok, err := s.GetFiltered(ptrs[0], &sc, func([]byte) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if ok || obj.Text != "" {
		t.Fatalf("rejected candidate materialized: ok=%v obj=%+v", ok, obj)
	}
	rejStats := d.Stats()
	d.ResetStats()
	if _, err := s.Get(ptrs[0]); err != nil {
		t.Fatal(err)
	}
	if getStats := d.Stats(); getStats != rejStats {
		t.Errorf("reject path stats %+v differ from Get's %+v", rejStats, getStats)
	}
	// Reusing the scratch across rows of different lengths stays correct.
	for pass := 0; pass < 2; pass++ {
		for i, ptr := range ptrs {
			want, err := s.Get(ptr)
			if err != nil {
				t.Fatal(err)
			}
			got, ok, err := s.GetFiltered(ptr, &sc, func(text []byte) bool {
				return len(text) == len(want.Text)
			})
			if err != nil || !ok {
				t.Fatalf("pass %d row %d: ok=%v err=%v", pass, i, ok, err)
			}
			if got.Text != want.Text {
				t.Errorf("pass %d row %d: text %q, want %q", pass, i, got.Text, want.Text)
			}
		}
	}
}

// TestGetFilteredFiltersEveryDecodedRow: a row GetFiltered returns must
// have passed accept. rowText and decodeRow once parsed the dimension
// differently — decodeRow also took a sign, and rowText refused more than 64
// coordinates — so such rows came back as survivors their filter never saw.
func TestGetFilteredFiltersEveryDecodedRow(t *testing.T) {
	reject := func([]byte) bool { return false }
	var sc RowScratch

	s, d := newStore(4096)
	_, wide, err := s.Append(make(geo.Point, 65), "pool cafe")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetFiltered(wide, &sc, reject); ok || err != nil {
		t.Errorf("65-dimension row: ok=%v err=%v, want rejected", ok, err)
	}

	for _, row := range []string{"5\t+2\t1\t2\tpool cafe\n", "5\t-0\tpool cafe\n"} {
		if err := d.Write(s.blocks[0], []byte(row)); err != nil {
			t.Fatal(err)
		}
		obj, ok, err := s.GetFiltered(0, &sc, reject)
		if ok {
			t.Errorf("%q came back as %+v without passing the filter", row, obj)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%q: err = %v, want ErrCorrupt", row, err)
		}
	}
}

// TestGetFilteredErrors mirrors Get's error cases.
func TestGetFilteredErrors(t *testing.T) {
	s, _ := newStore(128)
	if _, _, err := s.Append(geo.NewPoint(1, 2), "unsynced"); err != nil {
		t.Fatal(err)
	}
	var sc RowScratch
	if _, _, err := s.GetFiltered(0, &sc, func([]byte) bool { return true }); !errors.Is(err, ErrNotSynced) {
		t.Errorf("unsynced read: err = %v", err)
	}
}

// TestRowText pins the zero-alloc text locator against encodeRow's layout,
// including rows it must refuse to shortcut.
func TestRowText(t *testing.T) {
	good := encodeRow(7, geo.NewPoint(1.5, -2.25), "wifi pool")
	text, ok := rowText(good[:len(good)-1])
	if !ok || string(text) != "wifi pool" {
		t.Fatalf("rowText = %q, %v", text, ok)
	}
	for _, bad := range []string{
		"",
		"7",
		"7\t",
		"7\tx\t1\t2\ttext",
		"7\t9999999999\ttext",
		"7\t2\t1.0\ttext", // fewer coords than dim
	} {
		if _, ok := rowText([]byte(bad)); ok {
			t.Errorf("rowText accepted %q", bad)
		}
	}
	// A row with tabs beyond the declared fields is left to decodeRow.
	if _, ok := rowText([]byte("7\t1\t1.0\ttext\twith\ttabs")); ok {
		t.Error("rowText accepted a row with stray tabs")
	}
}

// BenchmarkGetFiltered times the ranked query's object load on a
// Hotels-sized row that spans two 4 KB blocks: the two block reads, the
// newline search, rowText, and — for a survivor — decodeRow.
func BenchmarkGetFiltered(b *testing.B) {
	s, _ := newStore(4096)
	text := strings.Repeat("wireless internet heated pool golf course ", 70)
	if _, _, err := s.Append(geo.NewPoint(1, 2), text); err != nil {
		b.Fatal(err)
	}
	_, ptr, err := s.Append(geo.NewPoint(3, 4), text)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
	if span := s.rowBlockSpan(ptr, len(text)); span != 2 {
		b.Fatalf("row spans %d blocks, want 2", span)
	}
	for _, c := range []struct {
		name   string
		accept bool
	}{{"reject", false}, {"accept", true}} {
		b.Run(c.name, func(b *testing.B) {
			var sc RowScratch
			accept := func([]byte) bool { return c.accept }
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.GetFiltered(ptr, &sc, accept); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// readBlockwise is the row read as it was before rows were read as runs: one
// ReadRunInto per block from ptr's until the newline appears. It is the
// reference the run read's bytes, charges and errors are held to.
func readBlockwise(s *Store, ptr Ptr) ([]byte, error) {
	bs := s.dev.BlockSize()
	blk := make([]byte, bs)
	var row []byte
	for i, off := int(uint64(ptr)/uint64(bs)), int(uint64(ptr)%uint64(bs)); ; i, off = i+1, 0 {
		if i >= len(s.blocks) {
			return nil, fmt.Errorf("%w: row at %d continues past synced data", ErrNotSynced, ptr)
		}
		if err := s.dev.ReadRunInto(s.blocks[i], 1, blk); err != nil {
			return nil, fmt.Errorf("objstore: get %d: %w", ptr, err)
		}
		if j := strings.IndexByte(string(blk[off:]), '\n'); j >= 0 {
			return append(row, blk[off:off+j]...), nil
		}
		row = append(row, blk[off:]...)
	}
}

// runCounter counts the ReadRunInto calls that reach the device.
type runCounter struct {
	storage.Device
	calls int
}

func (c *runCounter) ReadRunInto(id storage.BlockID, n int, dst []byte) error {
	c.calls++
	return c.Device.ReadRunInto(id, n, dst)
}

// TestRowIndexAndRunRead pins the row index and the run read through
// Append, Sync, Checkpoint's seal and a reopen, on blocks smaller and larger
// than the index's 256-byte bucket, with rows of one to four blocks: idAt
// gives every row start the ID slices.BinarySearch gives it and no other
// offset a row; Get and GetByID return the bytes, and charge the device the
// accesses, of a block-at-a-time read, in one ReadRunInto per row whose
// blocks are consecutive on the device.
func TestRowIndexAndRunRead(t *testing.T) {
	for _, bs := range []int{64, 512} {
		t.Run(fmt.Sprintf("block=%d", bs), func(t *testing.T) {
			d := storage.NewDisk(bs)
			dev := &runCounter{Device: d}
			s := New(dev)
			rng := rand.New(rand.NewSource(int64(bs)))
			check := func(stage string) {
				t.Helper()
				ptrs := s.Ptrs()
				for off := Ptr(0); uint64(off) < s.synced+uint64(2*bs); off++ {
					want, ok := slices.BinarySearch(ptrs, off)
					got, gotOK := s.idAt(off)
					if gotOK != ok || (ok && int(got) != want) {
						t.Fatalf("%s: idAt(%d) = %d, %v; binary search %d, %v", stage, off, got, gotOK, want, ok)
					}
				}
				for id, ptr := range ptrs {
					if uint64(ptr) >= s.synced {
						continue
					}
					d.ResetStats()
					want, err := readBlockwise(s, ptr)
					if err != nil {
						t.Fatalf("%s: reference read of row %d: %v", stage, id, err)
					}
					wantStats := d.Stats()
					for _, byID := range []bool{false, true} {
						d.ResetStats()
						dev.calls = 0
						var obj Object
						if byID {
							obj, err = s.GetByID(ID(id))
						} else {
							obj, err = s.Get(ptr)
						}
						if err != nil {
							t.Fatalf("%s: row %d: %v", stage, id, err)
						}
						if got := encodeRow(obj.ID, obj.Point, obj.Text); string(got[:len(got)-1]) != string(want) {
							t.Fatalf("%s: row %d reads %q, want %q", stage, id, got, want)
						}
						if got := d.Stats(); got != wantStats {
							t.Fatalf("%s: row %d (by ID %v) charged %+v, block at a time %+v", stage, id, byID, got, wantStats)
						}
						first, last := uint64(ptr)/uint64(bs), (uint64(ptr)+uint64(len(want)))/uint64(bs)
						runs := 1
						for i := first + 1; i <= last; i++ {
							if s.blocks[i] != s.blocks[i-1]+1 {
								runs++
							}
						}
						if dev.calls != runs {
							t.Fatalf("%s: row %d over blocks %d..%d took %d device calls, want %d", stage, id, first, last, dev.calls, runs)
						}
					}
				}
			}
			add := func(n int) {
				for i := 0; i < n; i++ {
					words := 1 + rng.Intn(4*bs/6)
					if i%3 == 0 {
						words = 1 + rng.Intn(4)
					}
					text := strings.Repeat("ab ", words)
					if _, _, err := s.Append(geo.NewPoint(float64(i), -float64(i)), text); err != nil {
						t.Fatal(err)
					}
				}
			}
			add(20)
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			check("sync")
			add(7)
			meta, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			check("checkpoint")
			add(9) // the first row after the seal starts a block; padding precedes it
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			check("sync after seal")
			if meta, err = s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			before := slices.Clone(s.Ptrs())
			if s, err = Open(dev, meta); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(s.Ptrs(), before) {
				t.Fatalf("reopen rebuilt %v, want %v", s.Ptrs(), before)
			}
			check("reopen")
			add(5)
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			check("append after reopen")
		})
	}
}
