package bench

import (
	"fmt"
	"strings"
	"testing"

	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/storage"
)

func TestWriteCSV(t *testing.T) {
	tbl := &Table{
		Title:   "x",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"3", "comma, quoted"}},
	}
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "a,b\n1,2\n") {
		t.Errorf("csv = %q", out)
	}
	if !strings.Contains(out, `"comma, quoted"`) {
		t.Errorf("csv quoting missing: %q", out)
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestCapacityAblation(t *testing.T) {
	base := BuildConfig{Spec: dataset.Restaurants(0.001), SigBytes: 8}
	tbl, err := CapacityAblation(base, []int{8, 64}, 5, 2, 5, 43, storage.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Smaller capacity → taller tree.
	if tbl.Rows[0][0] <= tbl.Rows[2][0] {
		t.Errorf("capacity 8 height %s not above capacity 64 height %s", tbl.Rows[0][0], tbl.Rows[2][0])
	}
}

func TestBulkBuildAblation(t *testing.T) {
	base := BuildConfig{Spec: dataset.Restaurants(0.001), SigBytes: 8}
	tbl, err := BulkBuildAblation(base, 5, 2, 5, 47, storage.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var insertIO, bulkIO float64
	if _, err := sscan(tbl.Rows[0][2], &insertIO); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tbl.Rows[1][2], &bulkIO); err != nil {
		t.Fatal(err)
	}
	if bulkIO >= insertIO {
		t.Errorf("bulk build random I/O %v not below insert build %v", bulkIO, insertIO)
	}
}
