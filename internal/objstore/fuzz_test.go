package objstore

import (
	"testing"

	"spatialkeyword/internal/geo"
)

// FuzzDecodeRow throws arbitrary bytes at the row parser: it must never
// panic, any row it accepts must re-encode losslessly, and rowText must
// locate that row's text.
func FuzzDecodeRow(f *testing.F) {
	f.Add([]byte("1\t2\t25.4\t-80.1\tHotel A tennis court"))
	f.Add([]byte("0\t0\t\t"))
	f.Add([]byte("9\t3\t1\t2\t3\ttext with spaces"))
	f.Add([]byte(""))
	f.Add([]byte("\t\t\t\t\t\t"))
	f.Add([]byte("18446744073709551615\t1\t0\tx"))
	f.Add([]byte("5\t+2\t1\t2\tpool cafe"))
	f.Add([]byte("5\t-0\tpool"))
	f.Fuzz(func(t *testing.T, row []byte) {
		obj, err := decodeRow(row)
		if err != nil {
			return
		}
		// GetFiltered runs its filter on rowText's view of the row, so a
		// row that decodes must have its text located, and the same text.
		if text, ok := rowText(row); !ok || string(text) != obj.Text {
			t.Fatalf("decodeRow accepted %q with text %q, rowText gives %q, %v", row, obj.Text, text, ok)
		}
		// Accepted rows round-trip (modulo sanitization, which the fuzz
		// input may violate but Append never produces).
		re := encodeRow(obj.ID, obj.Point, obj.Text)
		obj2, err := decodeRow(re[:len(re)-1])
		if err != nil {
			t.Fatalf("re-decode of accepted row failed: %v", err)
		}
		if obj2.ID != obj.ID || !obj2.Point.Equal(obj.Point) {
			t.Fatalf("round trip changed object: %+v vs %+v", obj, obj2)
		}
	})
}

// FuzzAppendGet drives the store with arbitrary text payloads.
func FuzzAppendGet(f *testing.F) {
	f.Add("plain text", 1.5, -2.5)
	f.Add("tabs\tand\nnewlines\x00nul", 0.0, 0.0)
	f.Add("", 1e300, -1e300)
	f.Fuzz(func(t *testing.T, text string, x, y float64) {
		s, _ := newStore(64)
		_, ptr, _ := s.Append(geo.NewPoint(x, y), text)
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		obj, err := s.Get(ptr)
		if err != nil {
			t.Fatalf("Get after Append: %v", err)
		}
		if obj.Text != sanitize(text) {
			t.Fatalf("text mangled: %q -> %q", text, obj.Text)
		}
	})
}
