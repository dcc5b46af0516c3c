package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/storage"
)

// loadDataset adds spec's rows to eng and returns their points and the
// dataset's words by descending document frequency.
func loadDataset(t testing.TB, eng *shard.ShardedEngine, spec dataset.Spec) ([][]float64, []string) {
	t.Helper()
	store := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
	stats, err := dataset.Generate(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	var points [][]float64
	err = store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
		points = append(points, o.Point)
		_, err := eng.Add(o.Point, o.Text)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return points, stats.WordsByFreq()
}

// fetch runs one request and returns its status, body and Content-Length.
func fetch(t *testing.T, ts *httptest.Server, path, query string) (int, []byte, string) {
	t.Helper()
	var resp *http.Response
	var err error
	if query != "" {
		resp = postQuery(t, ts.URL, query)
	} else if resp, err = http.Get(ts.URL + path); err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("Content-Length")
}

// encoded is what json.NewEncoder writes for v.
func encoded(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestAppendedBodiesMatchEncodingJSON pins the appended /search, /ranked and
// /query bodies to json.NewEncoder's encoding of the same value, byte for
// byte, with a Content-Length equal to the body's length, on Hotels(0.02)
// and Restaurants(0.01) engines of 1 and 4 shards. /search and /ranked are
// held to the answers the backend gives when asked directly; a /query body,
// whose EXPLAIN ANALYZE lines carry timings, to its own decoded value. An
// answer with an infinite distance keeps encoding/json's 500.
func TestAppendedBodiesMatchEncodingJSON(t *testing.T) {
	for _, ds := range []struct {
		name string
		spec dataset.Spec
	}{{"hotels", dataset.Hotels(0.02)}, {"restaurants", dataset.Restaurants(0.01)}} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", ds.name, shards), func(t *testing.T) {
				eng, err := openOrCreate("", spatialkeyword.Config{SignatureBytes: 64}, shards)
				if err != nil {
					t.Fatal(err)
				}
				s := newServer(eng, false, serverOptions{})
				ts := httptest.NewServer(s.routes())
				t.Cleanup(ts.Close)
				t.Cleanup(func() { eng.Close() })
				points, words := loadDataset(t, eng, ds.spec)
				frequent, mid := words[:len(words)/50], words[len(words)/50:len(words)/5]
				check := func(path, query string, want func(body []byte) string) {
					t.Helper()
					status, body, length := fetch(t, ts, path, query)
					if status != http.StatusOK {
						t.Fatalf("%s %s: status %d: %s", path, query, status, body)
					}
					if length != strconv.Itoa(len(body)) {
						t.Fatalf("%s %s: Content-Length %q for a %d-byte body", path, query, length, len(body))
					}
					if w := want(body); string(body) != w {
						t.Fatalf("%s %s:\n got %s\nwant %s", path, query, body, w)
					}
				}
				for i := 0; i < 3; i++ {
					p := points[i*len(points)/3]
					at := fmt.Sprintf("lat=%v&lon=%v", p[0], p[1])
					for _, k := range []int{1, 10, 100} {
						kws := []string{frequent[i%len(frequent)]}
						if k == 10 {
							kws = append(kws, mid[i%len(mid)])
						}
						check(fmt.Sprintf("/search?%s&k=%d&q=%s", at, k, url.QueryEscape(strings.Join(kws, ","))), "", func(body []byte) string {
							res, _, err := eng.TopKWithStats(k, p, kws...)
							if err != nil {
								t.Fatal(err)
							}
							var got searchResponse
							if err := json.Unmarshal(body, &got); err != nil {
								t.Fatal(err)
							}
							if res == nil {
								res = []spatialkeyword.Result{}
							}
							return encoded(t, searchResponse{Results: res, Stats: got.Stats})
						})
					}
					kws := []string{frequent[(i+1)%len(frequent)], mid[(i+2)%len(mid)], mid[(i+3)%len(mid)]}
					check(fmt.Sprintf("/ranked?%s&k=10&q=%s", at, url.QueryEscape(strings.Join(kws, ","))), "", func([]byte) string {
						res, err := eng.TopKRanked(10, p, kws...)
						if err != nil {
							t.Fatal(err)
						}
						return encoded(t, rankedResponse{Results: res})
					})
					near := fmt.Sprintf("NEAR (%v, %v)", p[0], p[1])
					rect := fmt.Sprintf("rect(%v, %v, %v, %v)", p[0]-300, p[1]-300, p[0]+300, p[1]+300)
					f, m := strconv.Quote(frequent[i%len(frequent)]), strconv.Quote(mid[(i+5)%len(mid)])
					for _, stmt := range []string{
						fmt.Sprintf("SELECT TOP 10 %s MATCH %s", near, f),
						fmt.Sprintf("SELECT TOP 10 %s MATCH %s OR %s AND NOT %s", near, m, f, strconv.Quote(frequent[(i+1)%len(frequent)])),
						fmt.Sprintf("SELECT RANKED 10 %s MATCH %s OR %s", near, f, m),
						fmt.Sprintf("SELECT COUNT MATCH %s WITHIN %s", f, rect),
						fmt.Sprintf("SELECT ALL MATCH %s WITHIN %s", f, rect),
						fmt.Sprintf("EXPLAIN SELECT TOP 5 %s MATCH %s", near, f),
						fmt.Sprintf("EXPLAIN ANALYZE SELECT RANKED 5 %s MATCH %s OR %s", near, f, m),
					} {
						q, err := json.Marshal(map[string]string{"query": stmt})
						if err != nil {
							t.Fatal(err)
						}
						check("/query", string(q), func(body []byte) string {
							var got queryResponse
							if err := json.Unmarshal(body, &got); err != nil {
								t.Fatal(err)
							}
							return encoded(t, got)
						})
					}
				}
				// Every distance from here overflows to +Inf, which JSON
				// cannot carry: the 500 and its body are encoding/json's.
				const inf = `{"error":"encode response: json: unsupported value: +Inf"}` + "\n"
				w := strconv.Quote(frequent[0])
				for _, c := range [][2]string{
					{"/search?lat=1e308&lon=1&k=2&q=" + frequent[0], ""},
					{"/ranked?lat=1e308&lon=1&k=2&q=" + frequent[0], ""},
					{"/query", `{"query": "SELECT TOP 2 NEAR (1e308, 1) MATCH ` + strings.ReplaceAll(w, `"`, `\"`) + `"}`},
				} {
					status, body, length := fetch(t, ts, c[0], c[1])
					if status != http.StatusInternalServerError || string(body) != inf || length != strconv.Itoa(len(body)) {
						t.Fatalf("%s %s: %d %q (Content-Length %q), want 500 %q", c[0], c[1], status, body, length, inf)
					}
				}
			})
		}
	}
}

// BenchmarkRankedHandler times the /ranked handler, request to written body
// through httptest's recorder, on a saved and reopened Hotels(0.02) engine
// (64-byte signatures) with BenchmarkDurableRanked's queries: a row's point,
// one frequent and two mid-band words, top 10. Its allocations per op are
// the handler's; the body's append allocates none (TestAppendedResponseAllocs).
func BenchmarkRankedHandler(b *testing.B) {
	dir := b.TempDir()
	eng, err := openOrCreate(dir, spatialkeyword.Config{SignatureBytes: 64}, 1)
	if err != nil {
		b.Fatal(err)
	}
	points, words := loadDataset(b, eng, dataset.Hotels(0.02))
	if err := eng.Save(); err != nil {
		b.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	if eng, err = openOrCreate(dir, spatialkeyword.Config{}, 1); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	h := newServer(eng, true, serverOptions{}).routes()
	frequent, mid := words[:len(words)/50], words[len(words)/50:len(words)/5]
	reqs := make([]*http.Request, 256)
	for i := range reqs {
		p := points[i*len(points)/len(reqs)]
		q := url.QueryEscape(strings.Join([]string{frequent[i*7%len(frequent)], mid[i*13%len(mid)], mid[i*29%len(mid)]}, ","))
		reqs[i] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/ranked?lat=%v&lon=%v&k=10&q=%s", p[0], p[1], q), nil)
	}
	serve := func(r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for _, r := range reqs { // warm the node cache
		serve(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(reqs[i%len(reqs)])
	}
}
