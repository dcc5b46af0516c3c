package invindex

import (
	"fmt"
	"reflect"
	"testing"

	"spatialkeyword/internal/storage"
)

// appendVocab is the fuzz vocabulary; index len(appendVocab) stands for
// the empty word, which is never posted.
var appendVocab = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}

// appendDoc is one document of a fuzz program.
type appendDoc struct {
	ref   uint64
	words []string
	fold  bool // Fold before appending this document
}

// decodeAppendProgram turns fuzz bytes into documents with strictly
// increasing refs: four bytes each — a control byte (bit 7: fold first,
// low six bits: extra gap to the previous ref) and three vocabulary picks.
func decodeAppendProgram(data []byte) []appendDoc {
	var docs []appendDoc
	ref := uint64(0)
	for ; len(data) >= 4; data = data[4:] {
		ref += 1 + uint64(data[0]&0x3f)
		d := appendDoc{ref: ref, fold: data[0]&0x80 != 0}
		for _, b := range data[1:4] {
			if i := int(b) % (len(appendVocab) + 1); i < len(appendVocab) {
				d.words = append(d.words, appendVocab[i])
			} else {
				d.words = append(d.words, "")
			}
		}
		docs = append(docs, d)
	}
	return docs
}

// requireSameIndex checks that two indexes answer every read alike.
func requireSameIndex(t *testing.T, got, want *Index) {
	t.Helper()
	if g, w := got.NumWords(), want.NumWords(); g != w {
		t.Fatalf("NumWords = %d, one-shot build has %d", g, w)
	}
	for _, w := range appendVocab {
		if g, x := got.DocFreq(w), want.DocFreq(w); g != x {
			t.Fatalf("DocFreq(%q) = %d, one-shot build has %d", w, g, x)
		}
		g, err := got.Postings(w)
		if err != nil {
			t.Fatal(err)
		}
		x, err := want.Postings(w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, x) {
			t.Fatalf("Postings(%q) = %v, one-shot build has %v", w, g, x)
		}
	}
	for i, a := range appendVocab {
		for _, b := range appendVocab[i:] {
			g, err := got.Intersect([]string{a, b})
			if err != nil {
				t.Fatal(err)
			}
			x, err := want.Intersect([]string{a, b})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g, x) {
				t.Fatalf("Intersect(%q, %q) = %v, one-shot build has %v", a, b, g, x)
			}
		}
	}
}

// FuzzAppendEquivalence is the appendable index's defining property:
// building over the first m documents and appending the rest, folding
// wherever the fuzzer says, reads exactly like one Build over all of
// them — and a final fold that drops references reads like one Build
// over the survivors. A non-increasing ref is rejected and changes
// nothing.
func FuzzAppendEquivalence(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{0, 0, 1, 2, 0, 1, 2, 3, 0x80, 0, 0, 12, 5, 4, 4, 4}, uint8(1), uint8(0))
	f.Add([]byte{0, 0, 1, 2, 0x85, 1, 2, 3, 0, 0, 0, 12, 0x80, 4, 5, 6, 0, 6, 7, 8}, uint8(0), uint8(3))
	f.Add([]byte{0x3f, 11, 11, 11, 0, 11, 0, 11, 0, 10, 9, 8, 0x80, 1, 1, 1, 0x80, 2, 2, 2}, uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, m, drop uint8) {
		docs := decodeAppendProgram(data)
		built := int(m) % (len(docs) + 1)

		ix := New(storage.NewDisk(256))
		for _, d := range docs[:built] {
			ix.Add(d.ref, d.words)
		}
		if err := ix.Build(); err != nil {
			t.Fatal(err)
		}
		for _, d := range docs[built:] {
			if d.fold {
				if err := ix.Fold(nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := ix.Append(d.ref, d.words); err != nil {
				t.Fatal(err)
			}
		}

		oneShot := func(keep func(ref uint64) bool) *Index {
			ref := New(storage.NewDisk(256))
			for _, d := range docs {
				if keep(d.ref) {
					ref.Add(d.ref, d.words)
				}
			}
			if err := ref.Build(); err != nil {
				t.Fatal(err)
			}
			return ref
		}
		requireSameIndex(t, ix, oneShot(func(uint64) bool { return true }))

		if len(docs) > 0 {
			last := docs[len(docs)-1].ref
			for _, ref := range []uint64{last, last - 1, 0} {
				if err := ix.Append(ref, []string{"a", "zz"}); err == nil {
					t.Fatalf("Append(%d) after ref %d was accepted", ref, last)
				}
			}
			requireSameIndex(t, ix, oneShot(func(uint64) bool { return true }))
		}

		if drop > 0 {
			dropped := func(ref uint64) bool { return ref%uint64(drop) == 0 }
			if err := ix.Fold(dropped); err != nil {
				t.Fatal(err)
			}
			requireSameIndex(t, ix, oneShot(func(ref uint64) bool { return !dropped(ref) }))
			if tail, _ := ix.PostingCounts(); tail != 0 {
				t.Fatalf("tail holds %d postings after Fold", tail)
			}
		}
	})
}

func TestAppendLifecycle(t *testing.T) {
	ix := New(storage.NewDisk(4096))
	if err := ix.Append(1, []string{"a"}); err == nil {
		t.Error("Append before Build succeeded")
	}
	if err := ix.Fold(nil); err == nil {
		t.Error("Fold before Build succeeded")
	}
	ix.Add(7, []string{"a"})
	ix.Add(3, []string{"b"})
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Append(7, []string{"a"}); err == nil {
		t.Error("Append of the largest built ref succeeded")
	}
	if err := ix.Append(8, []string{"a", "a", "", "c"}); err != nil {
		t.Fatal(err)
	}
	if got := ix.DocFreq("a"); got != 2 {
		t.Errorf("DocFreq(a) = %d, want 2", got)
	}
	if got := ix.NumWords(); got != 3 {
		t.Errorf("NumWords = %d, want 3", got)
	}
	if tail, base := ix.PostingCounts(); tail != 2 || base != 2 {
		t.Errorf("PostingCounts = %d, %d, want 2, 2", tail, base)
	}
	// A document without words still moves the reference floor.
	if err := ix.Append(9, nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.Append(9, []string{"a"}); err == nil {
		t.Error("Append of a repeated ref succeeded")
	}
}

// TestTailReadsChargeNoIO pins the accounting contract: a list read
// charges its on-device blocks and nothing for the tail, a tail-only word
// charges nothing, and a fold that empties a word removes it.
func TestTailReadsChargeNoIO(t *testing.T) {
	disk := storage.NewDisk(4096)
	ix := New(disk)
	for i := 0; i < 5000; i++ {
		ix.Add(uint64(i), []string{"common", fmt.Sprintf("w%d", i%50)})
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	disk.ResetStats()
	before, err := ix.Postings("common")
	if err != nil {
		t.Fatal(err)
	}
	static := disk.Stats()

	for i := 5000; i < 5100; i++ {
		if err := ix.Append(uint64(i), []string{"common", "fresh"}); err != nil {
			t.Fatal(err)
		}
	}
	disk.ResetStats()
	after, err := ix.Postings("common")
	if err != nil {
		t.Fatal(err)
	}
	if got := disk.Stats(); got != static {
		t.Errorf("list read with a tail charged %+v, without one %+v", got, static)
	}
	if len(after) != len(before)+100 || after[len(after)-1] != 5099 {
		t.Errorf("Postings(common) has %d refs ending %d, want %d ending 5099",
			len(after), after[len(after)-1], len(before)+100)
	}
	disk.ResetStats()
	fresh, err := ix.Postings("fresh")
	if err != nil {
		t.Fatal(err)
	}
	if st := disk.Stats(); len(fresh) != 100 || st != (storage.Stats{}) {
		t.Errorf("tail-only word: %d refs, %+v charged, want 100 and nothing", len(fresh), st)
	}
	// The caller owns what Postings returns.
	fresh[0] = 0
	if again, _ := ix.Postings("fresh"); again[0] != 5000 {
		t.Error("Postings returned the tail's own backing array")
	}

	sizeBefore := ix.SizeBytes()
	if err := ix.Fold(func(ref uint64) bool { return ref >= 5000 && ref < 5100 }); err != nil {
		t.Fatal(err)
	}
	if ix.DocFreq("fresh") != 0 || ix.NumWords() != 51 {
		t.Errorf("after dropping every fresh doc: DocFreq(fresh)=%d NumWords=%d, want 0 and 51",
			ix.DocFreq("fresh"), ix.NumWords())
	}
	if got := ix.SizeBytes(); got != sizeBefore {
		t.Errorf("fold back to the built contents left %d bytes on the device, build had %d", got, sizeBefore)
	}
	disk.ResetStats()
	if _, err := ix.Postings("common"); err != nil {
		t.Fatal(err)
	}
	if got := disk.Stats(); got != static {
		t.Errorf("list read after fold charged %+v, the one-shot build %+v", got, static)
	}
}

// TestFoldFailureLeavesIndexIntact: a fold that cannot read or write its
// region reports the error and keeps serving the lists it had.
func TestFoldFailureLeavesIndexIntact(t *testing.T) {
	disk := storage.NewDisk(64)
	ix := New(disk)
	for i := 0; i < 200; i++ {
		ix.Add(uint64(i), []string{"x", fmt.Sprintf("w%d", i%9)})
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Append(500, []string{"x", "new"}); err != nil {
		t.Fatal(err)
	}
	size := ix.SizeBytes()
	for _, op := range []storage.Op{storage.OpRead, storage.OpWrite} {
		op := op
		disk.SetFault(func(o storage.Op, id storage.BlockID) error {
			if o == op {
				return &storage.FaultError{Kind: storage.KindReadError, Op: o, Block: id}
			}
			return nil
		})
		if err := ix.Fold(nil); err == nil {
			t.Fatalf("Fold succeeded with every %v failing", op)
		}
		disk.SetFault(nil)
		if got := ix.SizeBytes(); got != size {
			t.Errorf("failed fold (%v fault) left %d bytes allocated, had %d", op, got, size)
		}
		refs, err := ix.Postings("x")
		if err != nil || len(refs) != 201 || refs[200] != 500 {
			t.Fatalf("after failed fold (%v fault): %d refs, err %v", op, len(refs), err)
		}
	}
	if err := ix.Fold(nil); err != nil {
		t.Fatal(err)
	}
	if refs, err := ix.Postings("new"); err != nil || !reflect.DeepEqual(refs, []uint64{500}) {
		t.Fatalf("Postings(new) after fold = %v, %v", refs, err)
	}
}
