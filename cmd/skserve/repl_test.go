package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/obs"
	"spatialkeyword/internal/repl"
)

// newLeaderTestServer starts a WAL-enabled durable skserve with the
// replication protocol mounted.
func newLeaderTestServer(t *testing.T, dir string) (*server, *httptest.Server) {
	t.Helper()
	eng, err := openOrCreate(dir, spatialkeyword.Config{SignatureBytes: 16, WAL: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(eng, true, serverOptions{leader: attachLeader(eng, dir)})
	if s.leader == nil {
		t.Fatal("WAL leader did not attach replication")
	}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

// newReplicaTestServer starts a read replica of leaderURL with opts (its
// registry is the follower's; rywTimeout defaults to 5s).
func newReplicaTestServer(t *testing.T, dir, leaderURL string, opts serverOptions) (*server, *httptest.Server) {
	t.Helper()
	opts.registry = obs.NewRegistry()
	if opts.rywTimeout == 0 {
		opts.rywTimeout = 5 * time.Second
	}
	f, err := repl.OpenFollower(dir, leaderURL, repl.Options{Registry: opts.registry})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(f, false, opts)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { f.Close() }) //nolint:errcheck // test teardown
	return s, ts
}

func TestReplicaServesLeaderWrites(t *testing.T) {
	_, leaderTS := newLeaderTestServer(t, t.TempDir())
	seedHotels(t, leaderTS)

	srv, replicaTS := newReplicaTestServer(t, t.TempDir(), leaderTS.URL, serverOptions{readMode: "eventual"})
	if srv.role() != "replica" {
		t.Fatalf("role = %q, want replica", srv.role())
	}
	if err := srv.follower.WaitFor(srv.leaderToken(t, leaderTS), 10*time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	resp, err := http.Get(replicaTS.URL + "/search?lat=25.5&lon=-80.0&k=2&q=internet")
	if err != nil {
		t.Fatal(err)
	}
	out := decode[searchResponse](t, resp)
	if len(out.Results) != 2 {
		t.Fatalf("replica returned %d results, want 2", len(out.Results))
	}

	// The replica refuses writes with 403.
	addResp := post(t, replicaTS.URL+"/objects", addRequest{Point: []float64{1, 2}, Text: "nope"})
	addResp.Body.Close() //nolint:errcheck // status is the assertion
	if addResp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica add status %d, want 403", addResp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, replicaTS.URL+"/objects/0", nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close() //nolint:errcheck // status is the assertion
	if delResp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica delete status %d, want 403", delResp.StatusCode)
	}
	saveResp := post(t, replicaTS.URL+"/save", struct{}{})
	saveResp.Body.Close() //nolint:errcheck // status is the assertion
	if saveResp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica save status %d, want 403", saveResp.StatusCode)
	}
}

// leaderToken fetches the leader's current position by doing a no-op write
// probe of /healthz — the token is in the replication block, but the
// simplest authoritative source is the leader object itself.
func (s *server) leaderToken(t *testing.T, leaderTS *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(leaderTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	replBlock, ok := out["replication"].(map[string]any)
	if !ok {
		t.Fatalf("leader /healthz has no replication block: %v", out)
	}
	tok, ok := replBlock["position"].(string)
	if !ok {
		t.Fatalf("leader /healthz replication block has no position: %v", replBlock)
	}
	return tok
}

func TestReplicaReadYourWrites(t *testing.T) {
	_, leaderTS := newLeaderTestServer(t, t.TempDir())
	_, replicaTS := newReplicaTestServer(t, t.TempDir(), leaderTS.URL, serverOptions{readMode: "ryw"})

	// Every write's position token, echoed on the replica read, must make
	// the written object visible there.
	for i := 0; i < 10; i++ {
		resp := post(t, leaderTS.URL+"/objects", addRequest{
			Point: []float64{float64(i), 1},
			Text:  "ryw probe espresso",
		})
		tok := resp.Header.Get(repl.HeaderPosition)
		out := decode[map[string]uint64](t, resp)
		if tok == "" {
			t.Fatal("leader write response missing position header")
		}
		req, _ := http.NewRequest(http.MethodGet,
			replicaTS.URL+"/objects/"+strconv.FormatUint(out["id"], 10), nil)
		req.Header.Set(repl.HeaderPosition, tok)
		getResp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		obj := decode[spatialkeyword.Object](t, getResp)
		if getResp.StatusCode != http.StatusOK || obj.ID != out["id"] {
			t.Fatalf("ryw read %d: status %d, object %+v", i, getResp.StatusCode, obj)
		}
	}
}

func TestHealthzReplicationBlocks(t *testing.T) {
	_, leaderTS := newLeaderTestServer(t, t.TempDir())
	seedHotels(t, leaderTS)

	resp, err := http.Get(leaderTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string]any](t, resp)
	if out["role"] != "primary" {
		t.Fatalf("leader role %v", out["role"])
	}
	durs, ok := out["durability"].([]any)
	if !ok || len(durs) != 1 {
		t.Fatalf("leader /healthz has no one-shard durability block: %v", out)
	}
	if dur := durs[0].(map[string]any); dur["enabled"] != true || dur["durable_seq"].(float64) != 3 {
		t.Fatalf("leader durability block %v", dur)
	}

	var slow syncBuffer
	srv, replicaTS := newReplicaTestServer(t, t.TempDir(), leaderTS.URL,
		serverOptions{readMode: "eventual", slowQuery: time.Nanosecond, slowLogTo: &slow})
	if err := srv.follower.WaitFor(srv.leaderToken(t, leaderTS), 10*time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err = http.Get(replicaTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	out = decode[map[string]any](t, resp)
	if out["role"] != "replica" {
		t.Fatalf("replica role %v", out["role"])
	}
	replBlock, ok := out["replication"].(map[string]any)
	if !ok {
		t.Fatalf("replica /healthz has no replication block: %v", out)
	}
	if replBlock["connected"] != true || replBlock["lag_records"].(float64) != 0 {
		t.Fatalf("replica replication block %v", replBlock)
	}

	// A replica records the queries it answers, like its leader: the query
	// series and one slow-query line for one /search.
	resp, err = http.Get(replicaTS.URL + "/search?lat=25.5&lon=-80.0&k=2&q=internet")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck // the metrics are the assertion
	if lines := strings.Split(strings.TrimSpace(slow.String()), "\n"); len(lines) != 1 || !strings.Contains(lines[0], `"op":"topk"`) {
		t.Fatalf("replica slow-query log after one /search: %q", slow.String())
	}

	// The replica's /metrics exposes the five sk_repl_* series and the
	// query series.
	resp, err = http.Get(replicaTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck // read-only body
	text := string(body)
	for _, m := range []string{
		"sk_repl_lag_seconds", "sk_repl_lag_records",
		"sk_repl_snapshots_total", "sk_repl_resyncs_total",
		"sk_repl_follower_connected",
		`sk_queries_total{op="topk"}`,
	} {
		if !strings.Contains(text, "\n"+m) {
			t.Fatalf("replica /metrics missing %s:\n%s", m, text)
		}
	}
}
