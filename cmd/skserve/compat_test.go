package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/skql"
)

// copyCompatFixture copies one of testdata/compat's engine directories — bytes
// the build at commit ae80bff wrote, see the README there — to a temporary
// directory. The fixture itself is never opened: an open restores working
// files in place, and scripts/ci.sh compat fails if a run leaves it changed.
func copyCompatFixture(t *testing.T, name string) string {
	t.Helper()
	src, dst := filepath.Join("../../testdata/compat", name), t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestServesParentSingleEngineDirectory: skserve on a directory the parent
// build's single engine wrote (with a write-ahead log holding unsaved adds and
// deletes) serves it in place as one shard — the same IDs and answers on
// /search, /ranked and all four SKQL projections that spatialkeyword.OpenEngine
// gives on a copy, the same replayed-record count — and after the shutdown
// checkpoint both shard.Open and spatialkeyword.OpenEngine reopen it.
func TestServesParentSingleEngineDirectory(t *testing.T) {
	oracle, err := spatialkeyword.OpenEngine(copyCompatFixture(t, "single-ae80bff"))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	dir := copyCompatFixture(t, "single-ae80bff")
	eng, err := openOrCreate(dir, spatialkeyword.Config{SignatureBytes: 64}, 4) // an existing directory keeps its own shape
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(eng, true, serverOptions{leader: attachLeader(eng, dir)})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	body, walState := healthzWAL(t, ts)
	if body["shards"] != float64(1) || len(body["durability"].([]any)) != 1 || len(body["shard_health"].([]any)) != 1 {
		t.Errorf("healthz of an adopted directory: %v", body)
	}
	if got, want := walState["replayed_records"], float64(oracle.WALInfo().ReplayedRecords); got != want || want != 11 {
		t.Errorf("replayed_records = %v, OpenEngine replays %v", got, want)
	}

	point, kws := []float64{25.3, -79.7}, []string{"cafe", "wifi"}
	params := fmt.Sprintf("?lat=%g&lon=%g&k=6&q=%s", point[0], point[1], strings.Join(kws, ","))
	wantTop, _, err := oracle.TopKWithStats(6, point, kws...)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/search" + params)
	if err != nil {
		t.Fatal(err)
	}
	if got := decode[searchResponse](t, resp).Results; len(wantTop) == 0 || !reflect.DeepEqual(got, wantTop) {
		t.Errorf("/search:\n got %+v\nwant %+v", got, wantTop)
	}
	wantRanked, err := oracle.TopKRanked(6, point, kws...)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/ranked" + params)
	if err != nil {
		t.Fatal(err)
	}
	if got := decode[struct{ Results []spatialkeyword.RankedResult }](t, resp).Results; len(wantRanked) == 0 || !reflect.DeepEqual(got, wantRanked) {
		t.Errorf("/ranked:\n got %+v\nwant %+v", got, wantRanked)
	}

	cat := skql.NewCatalog(oracle)
	for _, text := range []string{
		`SELECT TOP 6 NEAR (25.3, -79.7) MATCH "cafe" AND "wifi"`,
		`SELECT RANKED 6 NEAR (25.3, -79.7) MATCH "pool" OR "espresso"`,
		`SELECT ALL MATCH "cafe" AND NOT "thai" WITHIN rect(25, -80.2, 25.6, -79.5)`,
		`SELECT COUNT MATCH "patio" WITHIN rect(25, -80.2, 26, -79)`,
	} {
		q, err := skql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cat.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		got := decode[queryResponse](t, postQuery(t, ts.URL, `{"query": `+fmt.Sprintf("%q", text)+`}`))
		if want.Count == 0 || got.Count != want.Count || !reflect.DeepEqual(got.Results, want.Results) || !reflect.DeepEqual(got.Ranked, want.Ranked) {
			t.Errorf("%s:\n got %+v\nwant %+v", text, got, want)
		}
	}

	// A write, then the shutdown checkpoint: both readers reopen the directory
	// and find the write under the next ID.
	next := uint64(oracle.NumObjects())
	resp = post(t, ts.URL+"/objects", addRequest{Point: []float64{25.31, -79.71}, Text: "cafe wifi added over http"})
	if got := decode[map[string]uint64](t, resp)["id"]; got != next {
		t.Fatalf("first add got ID %d, want %d", got, next)
	}
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopened, err := shard.Open(dir)
	if err != nil {
		t.Fatalf("shard.Open after the checkpoint: %v", err)
	}
	obj, err := reopened.Get(next)
	if err != nil || obj.Text != "cafe wifi added over http" {
		t.Errorf("shard.Open after the checkpoint: Get(%d) = %+v, %v", next, obj, err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	plain, err := spatialkeyword.OpenEngine(dir)
	if err != nil {
		t.Fatalf("OpenEngine after the checkpoint: %v", err)
	}
	defer plain.Close()
	if obj, err := plain.Get(next); err != nil || obj.Text != "cafe wifi added over http" {
		t.Errorf("OpenEngine after the checkpoint: Get(%d) = %+v, %v", next, obj, err)
	}
	if plain.Stats().Objects != oracle.Stats().Objects+1 {
		t.Errorf("OpenEngine after the checkpoint: %d objects, want %d", plain.Stats().Objects, oracle.Stats().Objects+1)
	}
}
