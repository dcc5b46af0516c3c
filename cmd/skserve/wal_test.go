package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spatialkeyword"
)

// newWALTestServer builds a durable server with the write-ahead log on
// (window 0: every append syncs individually, so counters are exact).
func newWALTestServer(t *testing.T, dir string, shards int) (*server, *httptest.Server) {
	t.Helper()
	cfg := spatialkeyword.Config{SignatureBytes: 16, WAL: true}
	eng, err := openOrCreate(dir, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(eng, true, serverOptions{})
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

// healthzWAL fetches /healthz and returns the response and its wal block.
func healthzWAL(t *testing.T, ts *httptest.Server) (map[string]any, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	body := decode[map[string]any](t, resp)
	walState, _ := body["wal"].(map[string]any)
	return body, walState
}

// TestWALServerRecoversWithoutSave is the service-level durability check:
// mutations acknowledged over HTTP survive an unclean shutdown (no Save),
// and the reopened server reports the replay in /healthz.
func TestWALServerRecoversWithoutSave(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			s, ts := newWALTestServer(t, dir, shards)
			ids := seedHotels(t, ts)

			body, walState := healthzWAL(t, ts)
			if body["status"] != "ok" {
				t.Fatalf("healthz status %v", body["status"])
			}
			if walState == nil || walState["enabled"] != true {
				t.Fatalf("healthz wal block missing or disabled: %v", walState)
			}
			if got := walState["appends"].(float64); got != float64(len(ids)) {
				t.Fatalf("healthz wal appends = %v, want %d", got, len(ids))
			}

			// Unclean shutdown: close without Save. Everything acknowledged
			// must come back from the log.
			ts.Close()
			if err := s.eng.Close(); err != nil {
				t.Fatal(err)
			}
			s2, ts2 := newWALTestServer(t, dir, shards)
			defer s2.eng.Close() //nolint:errcheck
			_, walState = healthzWAL(t, ts2)
			if got := walState["replayed_records"].(float64); got != float64(len(ids)) {
				t.Fatalf("replayed %v records after unclean shutdown, want %d", got, len(ids))
			}
			resp, err := http.Get(ts2.URL + "/search?lat=30.5&lon=100&k=10&q=internet")
			if err != nil {
				t.Fatal(err)
			}
			out := decode[searchResponse](t, resp)
			if len(out.Results) != len(ids) {
				t.Fatalf("search after recovery found %d, want %d", len(out.Results), len(ids))
			}
		})
	}
}

// TestWALHealthzCountsAcrossSave: /healthz reports the log's appends and
// fsyncs since open. POST /save rotates the log — every shard's — and must
// not start them again from zero.
func TestWALHealthzCountsAcrossSave(t *testing.T) {
	for _, shards := range []int{1, 3} {
		s, ts := newWALTestServer(t, t.TempDir(), shards)
		n := float64(len(seedHotels(t, ts)))
		_, before := healthzWAL(t, ts)
		resp := post(t, ts.URL+"/save", nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("shards=%d: save status %d", shards, resp.StatusCode)
		}
		seedHotels(t, ts)
		_, after := healthzWAL(t, ts)
		if before["appends"] != n || after["appends"] != 2*n {
			t.Errorf("shards=%d: wal appends = %v before the save and %v after, want %v and %v",
				shards, before["appends"], after["appends"], n, 2*n)
		}
		if after["fsyncs"].(float64) < before["fsyncs"].(float64)+n {
			t.Errorf("shards=%d: wal fsyncs = %v before the save and %v after %v more durable adds",
				shards, before["fsyncs"], after["fsyncs"], n)
		}
		if err := s.eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALServerMetrics: the WAL metric families are registered, seeded from
// the recovery counters, and driven by the live observer hooks.
func TestWALServerMetrics(t *testing.T) {
	dir := t.TempDir()
	s, ts := newWALTestServer(t, dir, 1)
	seedHotels(t, ts)

	types, _ := scrapeProm(t, ts.URL)
	if types["sk_wal_appends_total"] != "counter" {
		t.Fatalf("sk_wal_appends_total type %q", types["sk_wal_appends_total"])
	}
	if types["sk_wal_fsync_seconds"] != "histogram" {
		t.Fatalf("sk_wal_fsync_seconds type %q", types["sk_wal_fsync_seconds"])
	}
	text := promRaw(t, ts)
	for _, want := range []string{
		"sk_wal_appends_total 3",
		"sk_wal_replayed_records_total 0",
		"sk_wal_torn_tail_total 0",
		"sk_wal_fsync_seconds_count 3",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("missing metric sample %q in:\n%s", want, text)
		}
	}

	// Reopen uncleanly: the replay counter is seeded from recovery.
	ts.Close()
	if err := s.eng.Close(); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newWALTestServer(t, dir, 1)
	if text := promRaw(t, ts2); !strings.Contains(text, "sk_wal_replayed_records_total 3\n") {
		t.Fatalf("replay counter not seeded from recovery:\n%s", text)
	}
}

// promRaw fetches /metrics as raw exposition text for value assertions.
func promRaw(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestNonWALServerHasNoWALSurface: without -wal neither /healthz nor
// /metrics grow WAL entries.
func TestNonWALServerHasNoWALSurface(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	seedHotels(t, ts)
	body, walState := healthzWAL(t, ts)
	if walState != nil {
		t.Fatalf("non-WAL server reported wal state %v", walState)
	}
	if body["status"] != "ok" {
		t.Fatalf("healthz status %v", body["status"])
	}
	types, _ := scrapeProm(t, ts.URL)
	if _, ok := types["sk_wal_appends_total"]; ok {
		t.Fatal("non-WAL server registered WAL metrics")
	}
}

// TestShutdownCheckpointIndexesQueuedRun: the graceful-shutdown checkpoint
// of a -wal server whose shards hold queued adds — rows the tree has not
// taken, which reads search in memory — indexes them and commits, so the
// reopened server replays nothing and still answers every acknowledged row.
// Before it, a POST /save packs a base the adds then queue beside, and a few
// of the adds are deleted again, from the run. The checkpoint (Save, then
// Close) must finish well inside the benchmark harness's 10 s wait for a
// stopping server; the time it took is logged.
func TestShutdownCheckpointIndexesQueuedRun(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			s, ts := newWALTestServer(t, dir, shards)
			add := func(i int) uint64 {
				t.Helper()
				resp := post(t, ts.URL+"/objects", addRequest{
					Point: []float64{float64(i % 90), float64(i % 180)},
					Text:  fmt.Sprintf("hotel row%d internet pool", i),
				})
				if resp.StatusCode != http.StatusCreated {
					t.Fatalf("add %d: status %d", i, resp.StatusCode)
				}
				return decode[map[string]uint64](t, resp)["id"]
			}
			var ids []uint64
			for i := 0; i < 300; i++ {
				ids = append(ids, add(i))
			}
			if resp := post(t, ts.URL+"/save", nil); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("save status %d", resp.StatusCode)
			}
			for i := 300; i < 340; i++ { // fewer than a leaf's worth per shard
				ids = append(ids, add(i))
			}
			deleted := map[uint64]bool{}
			for i := 310; i < 340; i += 5 {
				id := ids[i]
				req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/objects/%d", ts.URL, id), nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
					t.Fatalf("delete %d: status %d", id, resp.StatusCode)
				}
				deleted[id] = true
			}
			ts.Close()
			start := time.Now()
			if err := s.checkpoint(); err != nil {
				t.Fatal(err)
			}
			took := time.Since(start)
			t.Logf("checkpoint (Save and Close) with queued rows took %v", took)
			if took > 2*time.Second {
				t.Errorf("checkpoint took %v, want well under 10 s", took)
			}

			s2, ts2 := newWALTestServer(t, dir, shards)
			defer s2.eng.Close() //nolint:errcheck
			if _, walState := healthzWAL(t, ts2); walState["replayed_records"].(float64) != 0 {
				t.Fatalf("reopen after the checkpoint replayed %v records, want 0", walState["replayed_records"])
			}
			for i, id := range ids {
				resp, err := http.Get(fmt.Sprintf("%s/objects/%d", ts2.URL, id))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				want := http.StatusOK
				if deleted[id] {
					want = http.StatusGone
				}
				if resp.StatusCode != want {
					t.Fatalf("row %d (id %d) after reopen: status %d, want %d", i, id, resp.StatusCode, want)
				}
			}
			resp, err := http.Get(ts2.URL + "/search?lat=0&lon=0&k=400&q=internet,pool")
			if err != nil {
				t.Fatal(err)
			}
			if got := len(decode[searchResponse](t, resp).Results); got != len(ids)-len(deleted) {
				t.Fatalf("search after reopen found %d rows, want %d", got, len(ids)-len(deleted))
			}
		})
	}
}
