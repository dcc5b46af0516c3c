package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialkeyword"
)

// newObsTestServer builds a server with explicit observability options.
func newObsTestServer(t *testing.T, shards int, opts serverOptions) (*server, *httptest.Server) {
	t.Helper()
	eng, err := openOrCreate("", spatialkeyword.Config{SignatureBytes: 16}, shards)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(eng, false, opts)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.eng.Close() })
	return s, ts
}

// promSample matches one Prometheus text-format sample line.
var promSample = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z0-9_]+="(?:[^"\\]|\\.)*"(?:,[a-zA-Z0-9_]+="(?:[^"\\]|\\.)*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// scrapeProm fetches /metrics and parses it strictly: every line must be a
// HELP/TYPE comment or a well-formed sample, and every sample's base family
// must have a preceding TYPE. Returns family→type and series line→present.
func scrapeProm(t *testing.T, url string) (types map[string]string, series map[string]bool) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	types = make(map[string]string)
	series = make(map[string]bool)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			types[fields[2]] = fields[3]
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("bad sample line %q", line)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(m[1], "_bucket"), "_sum"), "_count")
		if _, ok := types[m[1]]; !ok {
			if _, ok := types[base]; !ok {
				t.Fatalf("sample %q has no TYPE header", line)
			}
		}
		series[m[1]+m[2]] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return types, series
}

// hasSeries reports whether any scraped series line starts with prefix.
func hasSeries(series map[string]bool, prefix string) bool {
	for s := range series {
		if strings.HasPrefix(s, prefix) {
			return true
		}
	}
	return false
}

// TestMetricsEndpoint drives queries through a sharded backend and checks
// the Prometheus exposition: parseable, typed, and carrying the latency
// histogram, per-shard I/O counters, signature counters, and HTTP request
// counters the design promises.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newObsTestServer(t, 2, serverOptions{})
	seedHotels(t, ts)
	for _, path := range []string{
		"/search?lat=30.5&lon=100&k=2&q=internet,pool",
		"/search?lat=25.0&lon=-80.0&k=1&q=spa",
		"/ranked?lat=30.5&lon=100&k=2&q=internet,pool",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}

	types, series := scrapeProm(t, ts.URL)
	if types["sk_query_latency_seconds"] != "histogram" {
		t.Fatalf("sk_query_latency_seconds type = %q", types["sk_query_latency_seconds"])
	}
	for _, want := range []string{
		`sk_query_latency_seconds_bucket{op="topk",le="+Inf"}`,
		`sk_query_latency_seconds_count{op="ranked"}`,
		`sk_queries_total{op="topk"}`,
		`sk_io_blocks_total{kind="random",shard="0"}`,
		`sk_io_blocks_total{kind="sequential",shard="1"}`,
		`sk_io_blocks_total{kind="random",shard="all"}`,
		`sk_query_sig_false_positives_total{shard="all"}`,
		`sk_query_entries_pruned_total{shard="0"}`,
		`sk_http_requests_total{endpoint="search"}`,
	} {
		if !series[want] {
			t.Errorf("missing series %s", want)
		}
	}
	if !hasSeries(series, "sk_query_nodes_expanded_total") {
		t.Error("missing nodes-expanded family")
	}

	// /debug/vars renders the same registry as JSON.
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	for _, want := range []string{"sk_http_requests_total", "sk_query_latency_seconds", "sk_io_blocks_total"} {
		if _, ok := vars[want]; !ok {
			t.Errorf("/debug/vars missing %s", want)
		}
	}
}

// TestSlowQueryLog sets a zero-distance threshold so every query is slow,
// and checks the log emits one parseable JSON line per query.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	_, ts := newObsTestServer(t, 1, serverOptions{slowQuery: time.Nanosecond, slowLogTo: &buf})
	seedHotels(t, ts)
	resp, err := http.Get(ts.URL + "/search?lat=30.5&lon=100&k=2&q=internet,pool")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow log lines = %d (%q)", len(lines), buf.String())
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("slow log not JSON: %v (%q)", err, lines[0])
	}
	if entry["op"] != "topk" {
		t.Errorf("slow log op = %v", entry["op"])
	}
	if _, ok := entry["latency_ms"]; !ok {
		t.Error("slow log missing latency_ms")
	}
}

var (
	goldenNumber = regexp.MustCompile(`[0-9]+(\.[0-9]+)?`)
	goldenStats  = regexp.MustCompile(`"stats":(\{[^}]*\})`)
	goldenClock  = regexp.MustCompile(`"t":"[^"]*","op":"topk","latency_ms":[0-9.e+-]+`)
)

// TestWorkRecordGolden pins, byte for byte, the three shapes in which a
// query's work record leaves the process: the stats object of GET /search,
// a slow-query log line, and the sample names and label sets of the
// sk_query_* and sk_io_blocks_total families. One shard's counters are
// compared whole; on three shards every number is masked and only keys,
// order and labels are compared. The one-shard golden is the three-shard one
// with shards 1 and 2 removed.
func TestWorkRecordGolden(t *testing.T) {
	const (
		wantStats = `{"NodesLoaded":1,"ObjectsLoaded":2,"FalsePositives":0,"EntriesPruned":1,"NodesEnqueued":0,"ObjectsEnqueued":2,"BlocksRandom":3,"BlocksSequential":0,"Degraded":false}`
		wantSlow  = `{"t":T,"op":"topk","latency_ms":L,"k":2,"keywords":2,"results":2,"nodes_expanded":1,"entries_pruned":1,"objects_fetched":2,"sig_false_positives":0,"random_blocks":3,"sequential_blocks":0}`
	)
	for _, tc := range []struct {
		shards      int
		shardLabels []string
	}{
		{1, []string{"0", "all"}},
		{3, []string{"0", "1", "2", "all"}},
	} {
		var buf syncBuffer
		_, ts := newObsTestServer(t, tc.shards, serverOptions{slowQuery: time.Nanosecond, slowLogTo: &buf})
		seedHotels(t, ts)
		resp, err := http.Get(ts.URL + "/search?lat=30.5&lon=100&k=2&q=internet,pool")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		m := goldenStats.FindSubmatch(body)
		if m == nil {
			t.Fatalf("shards=%d: no stats object in %s", tc.shards, body)
		}
		stats, wantSt := string(m[1]), wantStats
		slow := goldenClock.ReplaceAllString(strings.TrimSpace(buf.String()), `"t":T,"op":"topk","latency_ms":L`)
		wantSl := wantSlow
		if tc.shards > 1 {
			stats, wantSt = goldenNumber.ReplaceAllString(stats, "N"), goldenNumber.ReplaceAllString(wantSt, "N")
			slow, wantSl = goldenNumber.ReplaceAllString(slow, "N"), goldenNumber.ReplaceAllString(wantSl, "N")
		}
		if stats != wantSt {
			t.Errorf("shards=%d: /search stats object\n got %s\nwant %s", tc.shards, stats, wantSt)
		}
		if slow != wantSl {
			t.Errorf("shards=%d: slow-query line\n got %s\nwant %s", tc.shards, slow, wantSl)
		}

		want := []string{
			`sk_queries_total{op="topk"}`,
			`sk_query_latency_seconds_bucket{op="topk",le="+Inf"}`,
			`sk_query_latency_seconds_count{op="topk"}`,
			`sk_query_latency_seconds_sum{op="topk"}`,
			`sk_query_random_blocks_bucket{op="topk",le="+Inf"}`,
			`sk_query_random_blocks_count{op="topk"}`,
			`sk_query_random_blocks_sum{op="topk"}`,
			`sk_query_results_total{op="topk"}`,
		}
		for _, sh := range tc.shardLabels {
			want = append(want,
				`sk_io_blocks_total{kind="random",shard="`+sh+`"}`,
				`sk_io_blocks_total{kind="sequential",shard="`+sh+`"}`,
				`sk_query_entries_pruned_total{shard="`+sh+`"}`,
				`sk_query_nodes_expanded_total{shard="`+sh+`"}`,
				`sk_query_objects_fetched_total{shard="`+sh+`"}`,
				`sk_query_sig_false_positives_total{shard="`+sh+`"}`)
		}
		sort.Strings(want)
		_, series := scrapeProm(t, ts.URL)
		var got []string
		for s := range series {
			finite := strings.Contains(s, "_bucket{") && !strings.Contains(s, `le="+Inf"`)
			if (strings.HasPrefix(s, "sk_quer") || strings.HasPrefix(s, "sk_io_blocks_total")) && !finite {
				got = append(got, s)
			}
		}
		sort.Strings(got)
		if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
			t.Errorf("shards=%d: query series\n got:\n%s\nwant:\n%s", tc.shards, g, w)
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestPprofMount checks the -pprof flag mounts the profile index and that
// it stays unmounted by default.
func TestPprofMount(t *testing.T) {
	_, off := newObsTestServer(t, 1, serverOptions{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: status %d", resp.StatusCode)
	}

	_, on := newObsTestServer(t, 1, serverOptions{pprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof on: status %d", resp.StatusCode)
	}
}

// TestConcurrentMetricsScrape hammers queries, writes, /stats, and /metrics
// together; run under -race this checks the whole observability path is
// synchronization-clean.
func TestConcurrentMetricsScrape(t *testing.T) {
	_, ts := newObsTestServer(t, 2, serverOptions{slowQuery: time.Nanosecond, slowLogTo: &syncBuffer{}})
	seedHotels(t, ts)
	paths := []string{
		"/search?lat=30.5&lon=100&k=2&q=internet",
		"/ranked?lat=30.5&lon=100&k=2&q=pool",
		"/stats",
		"/metrics",
		"/debug/vars",
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		for _, path := range paths {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				for j := 0; j < 5; j++ {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s status %d", path, resp.StatusCode)
						return
					}
				}
			}(path)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := post(t, ts.URL+"/objects", addRequest{
				Point: []float64{float64(i), float64(-i)},
				Text:  "motel parking wifi",
			})
			resp.Body.Close()
		}(i)
	}
	wg.Wait()

	_, series := scrapeProm(t, ts.URL)
	if !hasSeries(series, "sk_queries_total") {
		t.Error("no query totals after traffic")
	}
}
