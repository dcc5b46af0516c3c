package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"spatialkeyword"
)

func postQuery(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestQueryEndpointText(t *testing.T) {
	_, ts := newTestServer(t, "")
	seedHotels(t, ts)

	resp := postQuery(t, ts.URL, `{"query": "SELECT TOP 2 NEAR (25.4, -80.1) MATCH internet AND pool"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decode[queryResponse](t, resp)
	if out.Query != `SELECT TOP 2 NEAR (25.4, -80.1) MATCH "internet" AND "pool"` {
		t.Fatalf("canonical query = %q", out.Query)
	}
	if out.Count != 2 || len(out.Results) != 2 {
		t.Fatalf("count=%d results=%d", out.Count, len(out.Results))
	}
	// Both matches carry internet AND pool; the nearer one is B.
	if out.Results[0].Object.ID != 1 || out.Results[1].Object.ID != 2 {
		t.Fatalf("result IDs = %d, %d", out.Results[0].Object.ID, out.Results[1].Object.ID)
	}
}

func TestQueryEndpointJSONForm(t *testing.T) {
	_, ts := newTestServer(t, "")
	seedHotels(t, ts)

	resp := postQuery(t, ts.URL, `{"select":"count","within":[-90,-180,90,0],"match":{"term":"internet"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decode[queryResponse](t, resp)
	// Hotels A (25.4,-80.1), B (47.3,-122.2), G (-33.2,-70.4) all have
	// longitude < 0, so all three are inside the rect.
	if out.Count != 3 {
		t.Fatalf("count = %d, want 3", out.Count)
	}
}

func TestQueryEndpointExplainAnalyze(t *testing.T) {
	_, ts := newTestServer(t, "")
	seedHotels(t, ts)

	resp := postQuery(t, ts.URL, `{"query": "EXPLAIN ANALYZE SELECT TOP 1 NEAR (25.4, -80.1) MATCH internet"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decode[queryResponse](t, resp)
	if len(out.Results) != 1 {
		t.Fatalf("EXPLAIN ANALYZE should also answer, got %d results", len(out.Results))
	}
	joined := strings.Join(out.Explain, "\n")
	for _, want := range []string{"plan: top 1", "est:    blocks=", "actual: blocks="} {
		if !strings.Contains(joined, want) {
			t.Fatalf("explain output missing %q:\n%s", want, joined)
		}
	}
}

func TestQueryEndpointSharded(t *testing.T) {
	_, ts := newShardedTestServer(t, "", 3)
	seedHotels(t, ts)

	resp := postQuery(t, ts.URL, `{"query": "SELECT TOP 3 NEAR (25.4, -80.1) MATCH internet"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decode[queryResponse](t, resp)
	if out.Count != 3 {
		t.Fatalf("count = %d, want 3", out.Count)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, "")
	seedHotels(t, ts)

	cases := []struct {
		body    string
		wantSub string
	}{
		{`{"query": "SELECT nonsense"}`, "expected TOP"},
		{`{"select":"top","near":[1,2]}`, "k must be"},
		{`{"query": "SELECT RANKED 5 NEAR (1, 1) MATCH a USING iio"}`, "drop USING"},
		{``, "empty body"},
	}
	for _, tc := range cases {
		resp := postQuery(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", tc.body, resp.StatusCode)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(msg), tc.wantSub) {
			t.Fatalf("body %q: error %q, want substring %q", tc.body, msg, tc.wantSub)
		}
	}
}

// TestQueryEndpointReplica checks the SKQL front-end serves reads from
// a replication follower, the same answers the leader gives.
func TestQueryEndpointReplica(t *testing.T) {
	_, leaderTS := newLeaderTestServer(t, t.TempDir())
	seedHotels(t, leaderTS)
	srv, replicaTS := newReplicaTestServer(t, t.TempDir(), leaderTS.URL, serverOptions{readMode: "eventual"})
	tok := srv.leaderToken(t, leaderTS)
	if err := srv.follower.WaitFor(tok, 10e9); err != nil {
		t.Fatalf("replica catch-up: %v", err)
	}

	body := `{"query": "SELECT TOP 2 NEAR (25.4, -80.1) MATCH internet AND pool"}`
	want := decode[queryResponse](t, postQuery(t, leaderTS.URL, body))
	got := decode[queryResponse](t, postQuery(t, replicaTS.URL, body))
	if len(got.Results) != len(want.Results) {
		t.Fatalf("replica %d results, leader %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i].Object.ID != want.Results[i].Object.ID || got.Results[i].Dist != want.Results[i].Dist {
			t.Fatalf("result %d: replica %+v, leader %+v", i, got.Results[i], want.Results[i])
		}
	}
}

func TestQueryMetricsExported(t *testing.T) {
	_, ts := newTestServer(t, "")
	seedHotels(t, ts)
	postQuery(t, ts.URL, `{"query": "SELECT TOP 2 NEAR (25.4, -80.1) MATCH internet"}`).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"sk_skql_parse_seconds", "sk_skql_plan_seconds", "sk_skql_exec_seconds",
		`sk_skql_plans_total{path=`,
		`sk_http_requests_total{endpoint="query"} 1`,
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestIndexMaintenanceMetrics: under writes between IIO statements the
// sidecar index is built from a scan once and then only caught up — the
// operator-visible form is sk_skql_index_full_builds_total staying at 1
// while rows_indexed grows. Statements that never touch the index (other
// paths, plain EXPLAIN) leave the family at zero.
func TestIndexMaintenanceMetrics(t *testing.T) {
	_, ts := newTestServer(t, "")
	seedHotels(t, ts)
	metrics := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		text, _ := io.ReadAll(resp.Body)
		return string(text)
	}
	requireLines := func(text string, lines ...string) {
		t.Helper()
		for _, want := range lines {
			if !strings.Contains(text, want+"\n") {
				t.Errorf("/metrics missing %q", want)
			}
		}
	}

	postQuery(t, ts.URL, `{"query": "SELECT TOP 2 NEAR (25.4, -80.1) MATCH internet USING ir2"}`).Body.Close()
	postQuery(t, ts.URL, `{"query": "EXPLAIN SELECT TOP 2 NEAR (25.4, -80.1) MATCH internet USING iio"}`).Body.Close()
	requireLines(metrics(),
		"sk_skql_index_full_builds_total 0",
		"sk_skql_index_refresh_seconds_count 0")

	iio := `{"query": "SELECT COUNT WITHIN rect(-90, -180, 90, 180) MATCH pool USING iio"}`
	for round := 0; round < 3; round++ {
		resp := postQuery(t, ts.URL, iio)
		if out := decode[queryResponse](t, resp); out.Count != 2+round {
			t.Fatalf("round %d: count = %d, want %d", round, out.Count, 2+round)
		}
		// Current index: a repeat statement finds nothing to refresh.
		postQuery(t, ts.URL, iio).Body.Close()
		post(t, ts.URL+"/objects", addRequest{Point: []float64{1, float64(round)}, Text: "motel pool"}).Body.Close()
	}
	requireLines(metrics(),
		"sk_skql_index_full_builds_total 1",
		"sk_skql_index_rows_indexed_total 5", // 3 built + 2 caught up; the last add is not indexed yet
		"sk_skql_index_refresh_seconds_count 3")
}

// TestQueryIIOConcurrentWithAdds drives the single-engine server the way
// a mixed workload does, but from several clients at once: adds take the
// engine's write lock while IIO statements catch the index up and read
// it (run under -race). No statement may fail, and once the adds are in
// the count is exact.
func TestQueryIIOConcurrentWithAdds(t *testing.T) {
	_, ts := newTestServer(t, "")
	seedHotels(t, ts)
	const writers, perWriter, readers = 2, 25, 2
	iio := `{"query": "SELECT COUNT WITHIN rect(-90, -180, 90, 180) MATCH pool USING iio"}`
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				resp := post(t, ts.URL+"/objects", addRequest{Point: []float64{float64(w), float64(i)}, Text: "inn pool sauna"})
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					t.Errorf("add status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				resp := postQuery(t, ts.URL, iio)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	if out := decode[queryResponse](t, postQuery(t, ts.URL, iio)); out.Count != 2+writers*perWriter {
		t.Fatalf("count after the adds = %d, want %d", out.Count, 2+writers*perWriter)
	}
}

// TestExplainAnalyzeFoldsTraceOnEveryBackend: there is one executor arm, the
// stream, so EXPLAIN ANALYZE carries the traversal trace the stream folds in
// on every backend — one shard, three, and a replica. Around the trace lines
// the bodies are the ones these backends have always produced, byte for byte,
// except where the object file's layout moved them (see the one-shard line).
func TestExplainAnalyzeFoldsTraceOnEveryBackend(t *testing.T) {
	const body = `{"query": "EXPLAIN ANALYZE SELECT TOP 2 NEAR (25.4, -80.1) MATCH internet AND pool"}`
	// What every backend's body starts and ends with; the actual and work
	// lines between differ with the devices behind it.
	const head = `{"query":"EXPLAIN ANALYZE SELECT TOP 2 NEAR (25.4, -80.1) MATCH \"internet\" AND \"pool\"","results":[{"Object":{"ID":1,"Point":[47.3,-122.2],"Text":"Hotel B wireless Internet pool golf course"},"Dist":47.45545279522682},{"Object":{"ID":2,"Point":[-33.2,-70.4],"Text":"Hotel G Internet airport transportation pool"},"Dist":59.39739051507229}],"count":2,"explain":["EXPLAIN ANALYZE SELECT TOP 2 NEAR (25.4, -80.1) MATCH \"internet\" AND \"pool\"","plan: top 2, merge=distance, dnf union of 1 branches","  common conjuncts: [internet pool]","  cost inputs: n=3 height=1 fanout=64 postings/block=2048 blocks/object=1.0","  op 1: path=ir2 conj=[internet pool] k=2","    est:    blocks=3.2 rows=2.0 sel=0.6667 disk=24ms",`
	const tail = `"  total: est blocks=3.2 est rows=2.0 est disk=24ms"]}` + "\n"
	traceLine := regexp.MustCompile(`"    \|[^"]*",`)
	check := func(name, url, actual string) {
		t.Helper()
		resp := postQuery(t, url, body)
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, read error %v", name, resp.StatusCode, err)
		}
		got := string(b)
		for _, want := range []string{`"    | expand node `, `"    |   prune `, `"    | emit object `} {
			if !strings.Contains(got, want) {
				t.Errorf("%s: EXPLAIN ANALYZE carries no %q line:\n%s", name, want, got)
			}
		}
		if got, want := traceLine.ReplaceAllString(got, ""), head+actual+tail; got != want {
			t.Errorf("%s: body around the trace changed:\n got %s\nwant %s", name, got, want)
		}
	}

	_, one := newTestServer(t, "")
	seedHotels(t, one)
	// The seeded rows are added one at a time, and Sync leaves the object
	// file's open block open, so the two result rows share one block. When
	// Sync sealed, each row had a block of its own, the second one adjacent
	// to the first and so a sequential read: 2 rand + 2 seq, 16.12ms. The
	// paper's model charges a re-read of the same block as random, so the
	// shared block costs one random access more.
	check("one shard", one.URL, `"    actual: blocks=4 (3 rand + 1 seq) rows=2 candidates=2 disk=24.06ms","    work:   nodes=1 objects=2 pruned=1 falsepos=0",`)

	_, three := newShardedTestServer(t, "", 3)
	seedHotels(t, three)
	check("three shards", three.URL, `"    actual: blocks=6 (4 rand + 2 seq) rows=2 candidates=2 disk=32.12ms","    work:   nodes=2 objects=2 pruned=1 falsepos=0",`)

	_, leaderTS := newLeaderTestServer(t, t.TempDir())
	seedHotels(t, leaderTS)
	srv, replicaTS := newReplicaTestServer(t, t.TempDir(), leaderTS.URL, serverOptions{readMode: "eventual"})
	if err := srv.follower.WaitFor(srv.leaderToken(t, leaderTS), 10e9); err != nil {
		t.Fatalf("replica catch-up: %v", err)
	}
	check("replica", replicaTS.URL, `"    actual: blocks=4 (3 rand + 1 seq) rows=2 candidates=2 disk=24.06ms","    work:   nodes=1 objects=2 pruned=1 falsepos=0",`)
}

// TestTextPipelineReachesSKQLAndFences: a backend built with stemming or
// stopword removal indexes normalised terms, so SKQL (planner statistics,
// sidecar index, residual filters) and geofence keywords must normalise the
// same way — the pipeline travels with the backend's Corpus. Every physical
// path of a TOP statement has to agree with GET /search on an inflected
// keyword, a stopword has to be refused at planning as the engine would drop
// it, and a fence registered under the inflected keyword has to fire.
func TestTextPipelineReachesSKQLAndFences(t *testing.T) {
	fenceLeakCheck(t)
	for _, cfg := range []spatialkeyword.Config{
		{SignatureBytes: 16, Stemming: true},
		{SignatureBytes: 16, RemoveStopwords: true},
		{SignatureBytes: 16, Stemming: true, RemoveStopwords: true},
	} {
		for _, shards := range []int{1, 3} {
			name := fmt.Sprintf("stem=%v/stop=%v/shards=%d", cfg.Stemming, cfg.RemoveStopwords, shards)
			eng, err := openOrCreate("", cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(newServer(eng, false, serverOptions{}).routes())
			t.Cleanup(ts.Close)
			for i := 0; i < 60; i++ {
				text := "marina with fuel dock"
				if i%10 == 3 {
					text = "fishing charters with bait"
				}
				if _, err := eng.Add([]float64{float64(i%8) + 1, float64(i/8) + 1}, text); err != nil {
					t.Fatal(err)
				}
			}
			word := "fishing"
			if cfg.Stemming {
				word = "fished" // only the stemmer makes this a match
			}
			resp, err := http.Get(ts.URL + "/search?lat=0&lon=0&k=10&q=" + word)
			if err != nil {
				t.Fatal(err)
			}
			want := decode[searchResponse](t, resp).Results
			if len(want) != 6 {
				t.Fatalf("%s: /search finds %d rows for %q, want 6", name, len(want), word)
			}
			for _, path := range []string{"ir2", "iio", "rtree"} {
				resp := postQuery(t, ts.URL, fmt.Sprintf(`{"query": "SELECT TOP 10 NEAR (0, 0) MATCH %s USING %s"}`, word, path))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: USING %s: status %d", name, path, resp.StatusCode)
				}
				if got := decode[queryResponse](t, resp).Results; !reflect.DeepEqual(got, want) {
					t.Errorf("%s: USING %s answers %d rows, /search %d:\n got %+v\nwant %+v", name, path, len(got), len(want), got, want)
				}
			}
			if cfg.RemoveStopwords {
				resp := postQuery(t, ts.URL, `{"query": "SELECT TOP 10 NEAR (0, 0) MATCH with"}`)
				if msg := decode[map[string]string](t, resp)["error"]; resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "dissolves") {
					t.Errorf("%s: stopword keyword: status %d, error %q; want it refused at planning", name, resp.StatusCode, msg)
				}
			}
			info := registerFence(t, ts, fenceRequest{
				Region:   &fenceRect{Lo: []float64{0, 0}, Hi: []float64{100, 100}},
				Keywords: []string{word},
			})
			post(t, ts.URL+"/objects", addRequest{Point: []float64{5, 5}, Text: "night fishing pier"}).Body.Close()
			resp, err = http.Get(fmt.Sprintf("%s/fences/%d", ts.URL, info.ID))
			if err != nil {
				t.Fatal(err)
			}
			if got := decode[fenceInfo](t, resp); got.Members != 1 {
				t.Errorf("%s: fence on %q has %d members after a matching add, want 1", name, word, got.Members)
			}
		}
	}
}
