package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("reqs_total", "requests", L("ep", "search"))
	c2 := r.Counter("reqs_total", "requests", L("ep", "search"))
	if c1 != c2 {
		t.Fatal("same name+labels returned different counters")
	}
	c3 := r.Counter("reqs_total", "requests", L("ep", "ranked"))
	if c1 == c3 {
		t.Fatal("different labels returned the same counter")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

// parsePromText is a minimal Prometheus text-format parser: it validates
// the line grammar the tests rely on and returns sample name+labels → value.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	types := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("bad metric type in %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("unterminated label set: %q", line)
			}
			name = key[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := types[name]; !ok {
			if _, ok := types[base]; !ok {
				t.Fatalf("sample %q has no TYPE header", line)
			}
		}
		out[key] = val
	}
	return out
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("sk_requests_total", "requests served", L("ep", "search")).Add(3)
	r.Gauge("sk_up", "liveness").Set(1)
	h := r.Histogram("sk_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, buf.String())

	if got := samples[`sk_requests_total{ep="search"}`]; got != 3 {
		t.Fatalf("counter sample = %v, want 3", got)
	}
	if got := samples["sk_up"]; got != 1 {
		t.Fatalf("gauge sample = %v, want 1", got)
	}
	// Histogram buckets are cumulative.
	for key, want := range map[string]float64{
		`sk_latency_seconds_bucket{le="0.01"}`: 1,
		`sk_latency_seconds_bucket{le="0.1"}`:  1,
		`sk_latency_seconds_bucket{le="1"}`:    2,
		`sk_latency_seconds_bucket{le="+Inf"}`: 3,
		`sk_latency_seconds_count`:             3,
	} {
		if got := samples[key]; got != want {
			t.Fatalf("%s = %v, want %v\n%s", key, got, want, buf.String())
		}
	}
	if got := samples["sk_latency_seconds_sum"]; got < 5.5 || got > 5.51 {
		t.Fatalf("histogram sum = %v, want ~5.505", got)
	}
}

func TestWritePrometheusEscapesLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("sk_x_total", "", L("q", "a\"b\\c\nd")).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `sk_x_total{q="a\"b\\c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("output %q does not contain %q", buf.String(), want)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("sk_plain_total", "").Add(2)
	r.Counter("sk_labelled_total", "", L("op", "topk")).Add(4)
	r.Histogram("sk_h", "", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if string(m["sk_plain_total"]) != "2" {
		t.Fatalf("plain counter = %s, want 2", m["sk_plain_total"])
	}
	var labelled map[string]uint64
	if err := json.Unmarshal(m["sk_labelled_total"], &labelled); err != nil {
		t.Fatal(err)
	}
	if labelled[`op="topk"`] != 4 {
		t.Fatalf("labelled counter = %v", labelled)
	}
	var hist HistogramSnapshot
	if err := json.Unmarshal(m["sk_h"], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Count != 1 {
		t.Fatalf("histogram snapshot count = %d, want 1", hist.Count)
	}
}

func TestQueryRecorder(t *testing.T) {
	reg := NewRegistry()
	rec := NewQueryRecorder(reg)
	// Whole-engine record feeds op-level and shard="all" families.
	rec.RecordQuery(QueryMetrics{
		Op: "topk", Shard: -1, K: 10, Keywords: 2, Results: 10,
		Work:    Work{NodesLoaded: 5, EntriesPruned: 40, ObjectsLoaded: 12, FalsePositives: 2, BlocksRandom: 17, BlocksSequential: 3},
		Latency: 2 * time.Millisecond,
	})
	// Per-shard slice feeds only shard-labelled families.
	rec.RecordQuery(QueryMetrics{Op: "topk", Shard: 1, Work: Work{NodesLoaded: 3, BlocksRandom: 9}})

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, buf.String())
	for key, want := range map[string]float64{
		`sk_queries_total{op="topk"}`:                       1,
		`sk_query_results_total{op="topk"}`:                 10,
		`sk_query_nodes_expanded_total{shard="all"}`:        5,
		`sk_query_nodes_expanded_total{shard="1"}`:          3,
		`sk_query_entries_pruned_total{shard="all"}`:        40,
		`sk_query_sig_false_positives_total{shard="all"}`:   2,
		`sk_io_blocks_total{kind="random",shard="all"}`:     17,
		`sk_io_blocks_total{kind="random",shard="1"}`:       9,
		`sk_io_blocks_total{kind="sequential",shard="all"}`: 3,
		`sk_query_latency_seconds_count{op="topk"}`:         1,
	} {
		if got := samples[key]; got != want {
			t.Fatalf("%s = %v, want %v\n%s", key, got, want, buf.String())
		}
	}
	// The per-shard record must not count as a finished query.
	if got := samples[`sk_queries_total{op="topk"}`]; got != 1 {
		t.Fatalf("queries_total = %v, want 1", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	rec := NewQueryRecorder(reg)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				rec.RecordQuery(QueryMetrics{Op: "topk", Shard: -1, Work: Work{BlocksRandom: 1}, Latency: time.Millisecond})
				rec.RecordQuery(QueryMetrics{Op: "topk", Shard: i % 4, Work: Work{BlocksRandom: 1}})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, buf.String())
	if got := samples[`sk_queries_total{op="topk"}`]; got != 8*200 {
		t.Fatalf("queries_total = %v, want %d", got, 8*200)
	}
}
