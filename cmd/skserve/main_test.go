package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/storage"
)

func newTestServer(t *testing.T, durableDir string) (*server, *httptest.Server) {
	return newShardedTestServer(t, durableDir, 1)
}

func newShardedTestServer(t *testing.T, durableDir string, shards int) (*server, *httptest.Server) {
	t.Helper()
	eng, err := openOrCreate(durableDir, spatialkeyword.Config{SignatureBytes: 16}, shards)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(eng, durableDir != "", serverOptions{})
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func seedHotels(t *testing.T, ts *httptest.Server) []uint64 {
	t.Helper()
	rows := []struct {
		pt   []float64
		text string
	}{
		{[]float64{25.4, -80.1}, "Hotel A tennis court gift shop spa Internet"},
		{[]float64{47.3, -122.2}, "Hotel B wireless Internet pool golf course"},
		{[]float64{-33.2, -70.4}, "Hotel G Internet airport transportation pool"},
	}
	var ids []uint64
	for _, r := range rows {
		resp := post(t, ts.URL+"/objects", addRequest{Point: r.pt, Text: r.text})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("add status %d", resp.StatusCode)
		}
		out := decode[map[string]uint64](t, resp)
		ids = append(ids, out["id"])
	}
	return ids
}

func TestAddSearchLifecycle(t *testing.T) {
	_, ts := newTestServer(t, "")
	ids := seedHotels(t, ts)
	if fmt.Sprint(ids) != "[0 1 2]" {
		t.Errorf("ids = %v", ids)
	}

	resp, err := http.Get(ts.URL + "/search?lat=30.5&lon=100&k=2&q=internet,pool")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	out := decode[searchResponse](t, resp)
	if len(out.Results) != 2 {
		t.Fatalf("results = %d", len(out.Results))
	}
	if !strings.Contains(out.Results[0].Object.Text, "Hotel G") {
		t.Errorf("first = %q", out.Results[0].Object.Text)
	}
	if out.Stats == nil || out.Stats.ObjectsLoaded == 0 {
		t.Errorf("stats missing: %+v", out.Stats)
	}

	// GET one object.
	resp, err = http.Get(ts.URL + "/objects/1")
	if err != nil {
		t.Fatal(err)
	}
	obj := decode[spatialkeyword.Object](t, resp)
	if !strings.Contains(obj.Text, "Hotel B") {
		t.Errorf("get = %+v", obj)
	}

	// DELETE it and search again.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/objects/1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/search?lat=30.5&lon=100&k=5&q=internet,pool")
	if err != nil {
		t.Fatal(err)
	}
	out = decode[searchResponse](t, resp)
	if len(out.Results) != 1 {
		t.Errorf("after delete: %d results", len(out.Results))
	}

	// Deleted object is 410, unknown is 404.
	for _, tc := range []struct {
		path string
		want int
	}{{"/objects/1", http.StatusGone}, {"/objects/99", http.StatusNotFound}} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestRankedEndpoint(t *testing.T) {
	_, ts := newTestServer(t, "")
	seedHotels(t, ts)
	resp, err := http.Get(ts.URL + "/ranked?lat=30.5&lon=100&k=5&q=internet,pool")
	if err != nil {
		t.Fatal(err)
	}
	out := decode[map[string][]spatialkeyword.RankedResult](t, resp)
	results := out["results"]
	if len(results) != 3 {
		t.Fatalf("ranked results = %d, want 3 (disjunctive)", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Error("ranked order violated")
		}
	}
}

// TestRankedBodyPinned pins /ranked's exact response bytes on a fixed
// engine: field names, field order, number formatting and the trailing
// newline, so a change to how the payload is encoded shows here.
func TestRankedBodyPinned(t *testing.T) {
	_, ts := newTestServer(t, "")
	seedHotels(t, ts)
	resp, err := http.Get(ts.URL + "/ranked?lat=30.5&lon=100&k=2&q=internet,pool")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"results":[` +
		`{"Object":{"ID":2,"Point":[-33.2,-70.4],"Text":"Hotel G Internet airport transportation pool"},` +
		`"Dist":181.9171514728614,"IRScore":0.626381484247684,"Score":0.22218636999387467},` +
		`{"Object":{"ID":1,"Point":[47.3,-122.2],"Text":"Hotel B wireless Internet pool golf course"},` +
		`"Dist":222.83419845257146,"IRScore":0.626381484247684,"Score":0.19402575323497134}]}` + "\n"
	if resp.StatusCode != http.StatusOK || string(got) != want {
		t.Fatalf("/ranked = %d\n got %q\nwant %q", resp.StatusCode, got, want)
	}
}

func TestStatsAndValidation(t *testing.T) {
	_, ts := newTestServer(t, "")
	seedHotels(t, ts)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[statsResponse](t, resp)
	if st.Engine.Objects != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.Requests["add"] != 3 || st.Requests["stats"] != 1 {
		t.Errorf("request counters = %v", st.Requests)
	}
	if len(st.Shards) != 1 || st.Shards[0].Objects != 3 {
		t.Errorf("one-shard engine's shard stats: %+v", st.Shards)
	}
	// Bad inputs.
	for _, path := range []string{
		"/search?lat=x&lon=1&q=a",
		"/search?lat=1&lon=1&k=0&q=a",
		"/search?lat=1&lon=1&k=9999&q=a",
		"/search?lat=NaN&lon=1&k=2&q=cafe",
		"/search?lat=1&lon=-Inf&k=2&q=cafe",
		"/ranked?lat=Inf&lon=1&k=2&q=cafe",
		"/ranked?lat=1&lon=nan&k=2&q=cafe",
		"/objects/notanumber",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, resp.StatusCode)
		}
	}
	// Bad JSON body.
	resp2, err := http.Post(ts.URL+"/objects", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json = %d", resp2.StatusCode)
	}
	// Wrong dimension point.
	resp3 := post(t, ts.URL+"/objects", addRequest{Point: []float64{1, 2, 3}, Text: "x"})
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("3-d point = %d", resp3.StatusCode)
	}
	// A coordinate JSON cannot carry as a finite number.
	resp4, err := http.Post(ts.URL+"/objects", "application/json", strings.NewReader(`{"point":[1e999,2],"text":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("overflowing coordinate = %d", resp4.StatusCode)
	}
}

func TestSaveEndpointDurable(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir)
	seedHotels(t, ts)
	resp, err := http.Post(ts.URL+"/save", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("save status %d", resp.StatusCode)
	}
	ts.Close()
	if err := s.eng.Close(); err != nil {
		t.Fatal(err)
	}

	// A new server over the same dir must see the data.
	_, ts2 := newTestServer(t, dir)
	resp, err = http.Get(ts2.URL + "/search?lat=30.5&lon=100&k=5&q=internet")
	if err != nil {
		t.Fatal(err)
	}
	out := decode[searchResponse](t, resp)
	if len(out.Results) != 3 {
		t.Errorf("after reopen: %d results", len(out.Results))
	}
}

func TestSaveEndpointMemoryEngine(t *testing.T) {
	_, ts := newTestServer(t, "")
	resp, err := http.Post(ts.URL+"/save", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("save on memory engine = %d, want 409", resp.StatusCode)
	}
}

func TestConcurrentHTTPTraffic(t *testing.T) {
	_, ts := newTestServer(t, "")
	seedHotels(t, ts)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w%2 == 0 {
					resp, err := http.Get(ts.URL + "/search?lat=0&lon=0&k=3&q=internet")
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
				} else {
					resp := post(t, ts.URL+"/objects", addRequest{
						Point: []float64{float64(w), float64(i)},
						Text:  fmt.Sprintf("concurrent place %d-%d internet", w, i),
					})
					resp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[statsResponse](t, resp)
	if st.Engine.Objects != 3+4*20 {
		t.Errorf("objects = %d, want %d", st.Engine.Objects, 3+4*20)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, "")
	seedHotels(t, ts)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	out := decode[map[string]any](t, resp)
	if out["status"] != "ok" || out["objects"] != float64(3) || out["shards"] != float64(1) {
		t.Errorf("healthz = %v", out)
	}
}

// TestShardedBackend runs the whole HTTP surface against a ShardedEngine
// backend: same API, global IDs, per-shard stats in /stats.
func TestShardedBackend(t *testing.T) {
	_, ts := newShardedTestServer(t, "", 3)
	ids := seedHotels(t, ts)
	if fmt.Sprint(ids) != "[0 1 2]" {
		t.Errorf("sharded ids = %v", ids)
	}

	resp, err := http.Get(ts.URL + "/search?lat=30.5&lon=100&k=2&q=internet,pool")
	if err != nil {
		t.Fatal(err)
	}
	out := decode[searchResponse](t, resp)
	if len(out.Results) != 2 || !strings.Contains(out.Results[0].Object.Text, "Hotel G") {
		t.Fatalf("sharded search = %+v", out.Results)
	}

	resp, err = http.Get(ts.URL + "/ranked?lat=30.5&lon=100&k=5&q=internet,pool")
	if err != nil {
		t.Fatal(err)
	}
	ranked := decode[map[string][]spatialkeyword.RankedResult](t, resp)["results"]
	if len(ranked) != 3 {
		t.Fatalf("sharded ranked = %d results", len(ranked))
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/objects/2", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("sharded delete status %d", dresp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/objects/2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("deleted object status %d, want 410", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[statsResponse](t, resp)
	if st.Engine.Objects != 2 {
		t.Errorf("sharded stats objects = %d", st.Engine.Objects)
	}
	if len(st.Shards) != 3 {
		t.Errorf("shard stats entries = %d, want 3", len(st.Shards))
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if h := decode[map[string]any](t, resp); h["shards"] != float64(3) {
		t.Errorf("healthz shards = %v", h["shards"])
	}
}

// TestShardedDurableReopen checks the directory-layout detection: a dir
// written by the sharded backend reopens sharded regardless of -shards.
func TestShardedDurableReopen(t *testing.T) {
	dir := t.TempDir()
	s, ts := newShardedTestServer(t, dir, 2)
	seedHotels(t, ts)
	resp, err := http.Post(ts.URL+"/save", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("sharded save status %d", resp.StatusCode)
	}
	ts.Close()
	if err := s.eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with shards=1: the layout wins, the engine comes back sharded.
	s2, ts2 := newShardedTestServer(t, dir, 1)
	if s2.shards() != 2 {
		t.Fatalf("reopened shards = %d, want 2", s2.shards())
	}
	resp, err = http.Get(ts2.URL + "/search?lat=30.5&lon=100&k=5&q=internet")
	if err != nil {
		t.Fatal(err)
	}
	out := decode[searchResponse](t, resp)
	if len(out.Results) != 3 {
		t.Errorf("after sharded reopen: %d results", len(out.Results))
	}
}

// TestCheckpoint exercises the graceful-shutdown tail directly: a durable
// server persists on checkpoint, an in-memory one just closes.
func TestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, ts := newShardedTestServer(t, dir, 2)
	seedHotels(t, ts)
	ts.Close()
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2, _ := newShardedTestServer(t, dir, 2)
	if got := s2.eng.Stats().Objects; got != 3 {
		t.Errorf("objects after checkpointed restart = %d, want 3", got)
	}

	mem, tsm := newTestServer(t, "")
	tsm.Close()
	if err := mem.checkpoint(); err != nil {
		t.Errorf("in-memory checkpoint = %v", err)
	}
}

func TestOpenOrCreateRejectsBadShards(t *testing.T) {
	if _, err := openOrCreate("", spatialkeyword.Config{}, 0); err == nil {
		t.Error("0 shards should fail")
	}
}

// TestRequestBodiesBounded: every route that reads a body refuses one over
// the limit with 413 instead of buffering it (or, as /query used to,
// truncating it into a JSON syntax error).
func TestRequestBodiesBounded(t *testing.T) {
	_, ts := newTestServer(t, "")
	for _, route := range []string{"/objects", "/fences", "/query"} {
		// Valid JSON all the way through, so only the size can be at fault.
		body := `{"text":"` + strings.Repeat("x", 2<<20) + `"}`
		resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a 2 MiB body: status %d, want 413", route, resp.StatusCode)
		}
	}
}

// TestAddStatusSeparatesClientFromServer: POST /objects answers 400 only for
// the caller's mistake (a point of the wrong dimensionality). An add
// acknowledges the way Engine.Add does: applied, and logged if there is a
// WAL. So a write the log refuses is a 500, while an object-file or index
// fault surfaces at the shard's next read, which degrades the shard, and a
// checkpoint is then refused.
func TestAddStatusSeparatesClientFromServer(t *testing.T) {
	failWrites := func(op storage.Op, id storage.BlockID) error {
		if op == storage.OpWrite {
			return &storage.FaultError{Kind: storage.KindWriteError, Op: op, Block: id}
		}
		return nil
	}
	const shards = 3
	serve := func(t *testing.T, wal, fault bool) *httptest.Server {
		t.Helper()
		eng, err := shard.NewDurable(spatialkeyword.Config{SignatureBytes: 16, WAL: wal}, t.TempDir(), shard.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		if fault {
			for i := 0; i < shards; i++ {
				eng.InjectShardFault(i, failWrites)
			}
		}
		ts := httptest.NewServer(newServer(eng, true, serverOptions{}).routes())
		t.Cleanup(ts.Close)
		return ts
	}
	addStatus := func(t *testing.T, ts *httptest.Server, point []float64) int {
		t.Helper()
		resp := post(t, ts.URL+"/objects", addRequest{Point: point, Text: "cafe"})
		resp.Body.Close()
		return resp.StatusCode
	}

	t.Run("sharded/wrong-dimension", func(t *testing.T) {
		if got := addStatus(t, serve(t, false, false), []float64{1}); got != http.StatusBadRequest {
			t.Fatalf("POST /objects = %d, want 400", got)
		}
	})
	t.Run("sharded/wal-fault", func(t *testing.T) {
		if got := addStatus(t, serve(t, true, true), []float64{1, 2}); got != http.StatusInternalServerError {
			t.Fatalf("POST /objects with a failing log = %d, want 500", got)
		}
	})
	t.Run("sharded/device-fault", func(t *testing.T) {
		ts := serve(t, false, true)
		if got := addStatus(t, ts, []float64{1, 2}); got != http.StatusCreated {
			t.Fatalf("POST /objects = %d, want 201: the add is applied, its indexing deferred", got)
		}
		resp, err := http.Get(ts.URL + "/search?lat=1&lon=2&k=1&q=cafe")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/search after the add = %d, want 200", resp.StatusCode)
		}
		if sr := decode[searchResponse](t, resp); sr.Stats == nil || !sr.Stats.Degraded {
			t.Fatalf("/search did not report the shard whose flush failed as degraded: %+v", sr.Stats)
		}
		resp, err = http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		health := decode[struct {
			Status      string              `json:"status"`
			ShardHealth []shard.ShardHealth `json:"shard_health"`
		}](t, resp)
		unhealthy := 0
		for _, h := range health.ShardHealth {
			if !h.Healthy {
				unhealthy++
			}
		}
		if health.Status != "degraded" || unhealthy != 1 {
			t.Fatalf("/healthz status %q with %d unhealthy shards, want degraded with 1: %+v", health.Status, unhealthy, health.ShardHealth)
		}
		resp = post(t, ts.URL+"/save", struct{}{})
		if msg := decode[map[string]string](t, resp)["error"]; resp.StatusCode != http.StatusInternalServerError || !strings.Contains(msg, "unhealthy shard") {
			t.Fatalf("POST /save = %d %q, want a 500 refusing the unhealthy shard", resp.StatusCode, msg)
		}
	})
}

// TestQueryStatusSeparatesClientRetryAndServer: the three query endpoints
// answer a failed execution the way POST /objects does — a point of the wrong
// dimensionality is the client's (400), a replica between snapshots is a
// passing state (503 with Retry-After), and only the rest is a 500.
func TestQueryStatusSeparatesClientRetryAndServer(t *testing.T) {
	queries := func(t *testing.T, base string, want int) {
		t.Helper()
		for _, path := range []string{"/search?lat=1&lon=2&k=1&q=x", "/ranked?lat=1&lon=2&k=1&q=x", "/query"} {
			var resp *http.Response
			var err error
			if path == "/query" {
				resp = postQuery(t, base, `{"query": "SELECT TOP 1 NEAR (1, 2) MATCH x"}`)
			} else if resp, err = http.Get(base + path); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
			}
			if want == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
				t.Errorf("%s: 503 without Retry-After", path)
			}
		}
	}

	// A non-finite coordinate is the client's mistake on every endpoint and
	// backend; a finite one so large that every distance overflows to +Inf is
	// a value json refuses, which must surface as a 500 with an error body —
	// never as a 2xx with none.
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("non-finite and overflow/shards=%d", shards), func(t *testing.T) {
			_, ts := newShardedTestServer(t, "", shards)
			seedHotels(t, ts)
			for _, tc := range []struct {
				path, body string
				want       int
			}{
				{"/search?lat=NaN&lon=1&k=2&q=pool", "", http.StatusBadRequest},
				{"/ranked?lat=Inf&lon=1&k=2&q=pool", "", http.StatusBadRequest},
				{"/query", `{"query": "SELECT TOP 2 NEAR (1e999, 1) MATCH pool"}`, http.StatusBadRequest},
				{"/search?lat=1e308&lon=1&k=2&q=pool", "", http.StatusInternalServerError},
				{"/ranked?lat=1e308&lon=1&k=2&q=pool", "", http.StatusInternalServerError},
				{"/query", `{"query": "SELECT TOP 2 NEAR (1e308, 1) MATCH pool"}`, http.StatusInternalServerError},
			} {
				var resp *http.Response
				var err error
				if tc.body != "" {
					resp = postQuery(t, ts.URL, tc.body)
				} else if resp, err = http.Get(ts.URL + tc.path); err != nil {
					t.Fatal(err)
				}
				msg := decode[map[string]string](t, resp)["error"]
				if resp.StatusCode != tc.want || msg == "" {
					t.Errorf("%s %s: status %d, error %q; want %d with an error body", tc.path, tc.body, resp.StatusCode, msg, tc.want)
				}
			}
		})
	}

	t.Run("replica resyncing", func(t *testing.T) {
		_, leaderTS := newLeaderTestServer(t, t.TempDir())
		seedHotels(t, leaderTS)
		// The replica reaches its leader through a gate that can turn the
		// leader into one whose log no longer serves the replica's position
		// (410, forcing a resync) and whose snapshots are unreachable.
		target, err := url.Parse(leaderTS.URL)
		if err != nil {
			t.Fatal(err)
		}
		proxy := httputil.NewSingleHostReverseProxy(target)
		var down atomic.Bool
		gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case !down.Load():
				proxy.ServeHTTP(w, r)
			case strings.HasPrefix(r.URL.Path, "/repl/log"):
				w.WriteHeader(http.StatusGone)
			default:
				w.WriteHeader(http.StatusBadGateway)
			}
		}))
		defer gate.Close()
		_, replicaTS := newReplicaTestServer(t, t.TempDir(), gate.URL, serverOptions{readMode: "eventual"})
		queries(t, replicaTS.URL, http.StatusOK)

		down.Store(true)
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(replicaTS.URL + "/search?lat=1&lon=2&k=1&q=x")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica never started resyncing (last status %d)", resp.StatusCode)
			}
			time.Sleep(5 * time.Millisecond)
		}
		queries(t, replicaTS.URL, http.StatusServiceUnavailable)
	})
}
