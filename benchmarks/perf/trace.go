package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/skql"
	"spatialkeyword/internal/storage"
)

// tracedOps is how many ops of the workload's list the in-process replay
// covers; the supplement that follows them touches every op kind, so every
// layer has samples on every workload.
const tracedOps = 300

// span is one traced interval around a call into a layer. Spans of one op
// share its index; Parent is the index of the enclosing span in the trace,
// -1 for an op's root span.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; with on unset begin and end do nothing,
// which is the untraced side of the overhead comparison.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	stack []int
	spans []span
}

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{Op: t.op, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].End = int64(time.Since(t.t0))
	t.stack = t.stack[:n]
}

// spanTotals is the per-name summary of a trace.
type spanTotals struct {
	calls int
	total time.Duration // Σ(end − start)
	self  time.Duration // total minus the time covered by child spans
}

func summarize(spans []span) map[string]*spanTotals {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanTotals{}
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.calls++
		t.total += time.Duration(s.End - s.Start)
		t.self += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// Response shapes of skserve's read endpoints, so that the in-process
// replay encodes what the server encodes.
type searchResponse struct {
	Results []spatialkeyword.Result    `json:"results"`
	Stats   *spatialkeyword.QueryStats `json:"stats,omitempty"`
}

type queryResponse struct {
	Query   string                        `json:"query"`
	Results []spatialkeyword.Result       `json:"results,omitempty"`
	Ranked  []spatialkeyword.RankedResult `json:"ranked,omitempty"`
	Count   int                           `json:"count"`
}

// replayer runs ops against an in-process engine the way skserve's handlers
// do, with a span around every call into a layer.
type replayer struct {
	b   backend
	cat *skql.Catalog
	tr  *tracer
	enc *json.Encoder
	// added maps the index of an add op to the ID its latest replay got.
	added map[int]uint64
}

func (p *replayer) encode(v any) error {
	p.tr.begin("http.encode")
	defer p.tr.end()
	return p.enc.Encode(v)
}

// run replays ops once and returns each op's time. Deletes take their ID
// from the add of the same replay, as over HTTP.
func (p *replayer) run(ops []op) ([]time.Duration, error) {
	lat := make([]time.Duration, len(ops))
	for i := range ops {
		start := time.Now()
		p.tr.op = i
		p.tr.begin("request")
		err := p.one(&ops[i], i)
		p.tr.end()
		if err != nil {
			return nil, fmt.Errorf("in-process op %d: %w", i, err)
		}
		lat[i] = time.Since(start)
	}
	return lat, nil
}

func (p *replayer) one(o *op, i int) error {
	switch o.kind {
	case opSearch:
		p.tr.begin("engine.topk")
		rs, st, err := p.b.TopKWithStats(o.k, o.point[:], o.words...)
		p.tr.end()
		if err != nil {
			return err
		}
		return p.encode(searchResponse{Results: rs, Stats: &st})
	case opRanked:
		p.tr.begin("engine.ranked")
		rs, err := p.b.TopKRanked(o.k, o.point[:], o.words...)
		p.tr.end()
		if err != nil {
			return err
		}
		return p.encode(map[string]any{"results": rs})
	case opQuery:
		p.tr.begin("skql.parse")
		q, err := skql.Parse(o.skql)
		p.tr.end()
		if err != nil {
			return err
		}
		p.tr.begin("skql.plan")
		plan, err := p.cat.BuildPlan(q)
		p.tr.end()
		if err != nil {
			return err
		}
		p.tr.begin("skql.exec")
		rs, err := p.cat.RunPlan(plan)
		p.tr.end()
		if err != nil {
			return err
		}
		return p.encode(queryResponse{Query: q.String(), Results: rs.Results, Ranked: rs.Ranked, Count: rs.Count})
	case opAdd:
		p.tr.begin("engine.add")
		id, err := p.b.Add(o.point[:], o.text)
		p.tr.end()
		if err != nil {
			return err
		}
		p.added[i] = id
		// skserve's single-engine backend indexes the add before it
		// releases the write lock; the sharded engine's Flush is a no-op.
		p.tr.begin("engine.flush")
		err = p.b.Flush()
		p.tr.end()
		return err
	default:
		p.tr.begin("engine.delete")
		err := p.b.Delete(p.added[o.addOp])
		p.tr.end()
		return err
	}
}

// supplement is a fixed mix that touches every op kind: 40 searches, 40
// ranked queries, 40 SKQL statements, 20 adds and their 20 deletes.
func supplement(c *corpus, seed int64) []op {
	ops := makeOps(genTopK, 40, c, seed)
	ops = append(ops, makeOps(genRanked, 40, c, seed)...)
	ops = append(ops, makeOps(genSKQL, 40, c, seed)...)
	base := len(ops)
	for _, o := range makeOps(genMixed, 400, c, seed) {
		if o.kind == opAdd {
			ops = append(ops, o)
		}
	}
	for i, n := base, len(ops); i < n; i++ {
		ops = append(ops, op{kind: opDelete, addOp: i})
	}
	return ops
}

// replays is how often the in-process list is replayed with spans off and
// with spans on.
const replays = 2

// traced is what the in-process phase yields.
type traced struct {
	spans      []span        // of the last traced replay
	untraced   time.Duration // whole list, spans off, fastest replay
	tracedTime time.Duration // whole list, spans on, fastest replay
	headTime   time.Duration // first tracedOps ops, spans off, Σ per-op minima
	headOps    int
	allocs     uint64 // heap allocations of the last untraced replay
	ops        int
	probes     map[string]float64
}

// tracedRun stops the server, opens its data directory in-process and
// replays the head of the op list plus the supplement with spans off and
// with spans on. The micro-probes run on the same engine and on instances
// built from the same corpus.
func (r *runState) tracedRun() (*traced, error) {
	dir := r.srv.dir
	r.srv.stop()
	r.srv = nil
	defer os.RemoveAll(dir) //nolint:errcheck // scratch under .bench_build

	b, err := openBackend(r.w, dir)
	if err != nil {
		return nil, fmt.Errorf("open snapshot in-process: %w", err)
	}
	defer b.Close() //nolint:errcheck // scratch copy; nothing to keep

	head := r.ops
	if len(head) > tracedOps {
		head = head[:tracedOps]
	}
	// The generators put every add before its delete, so cutting the list
	// can only leave an add without its delete, never the reverse.
	list := append(append([]op(nil), head...), supplement(r.c, r.opt.seed)...)
	for i := len(head); i < len(list); i++ {
		if list[i].kind == opDelete {
			list[i].addOp += len(head)
		}
	}

	t := &traced{headOps: len(head), ops: len(list)}
	p := &replayer{b: b, cat: skql.NewCatalog(b), enc: json.NewEncoder(io.Discard), added: map[int]uint64{}}
	// Spans off and spans on alternate, replays times each. As over HTTP,
	// an op's in-process time is its minimum over the untraced replays
	// (the first of which also warms the freshly opened engine) and a
	// replay's time is the fastest of its kind.
	minLat := make([]time.Duration, len(list))
	for rep := 0; rep < replays; rep++ {
		for _, on := range []bool{false, true} {
			// Earlier adds leave the sidecar index stale; refresh it outside
			// the timed replay so each is charged only for its own adds.
			if err := p.cat.EnsureIndex(); err != nil {
				return nil, err
			}
			p.tr = &tracer{on: on, t0: time.Now()}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			lat, err := p.run(list)
			if err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&after)
			var total time.Duration
			for i, d := range lat {
				total += d
				if !on && (rep == 0 || d < minLat[i]) {
					minLat[i] = d
				}
			}
			if on {
				t.spans = p.tr.spans
				if rep == 0 || total < t.tracedTime {
					t.tracedTime = total
				}
			} else {
				t.allocs = after.Mallocs - before.Mallocs
				if rep == 0 || total < t.untraced {
					t.untraced = total
				}
			}
		}
	}
	for _, d := range minLat[:len(head)] {
		t.headTime += d
	}

	t.probes, err = r.probes(b, p.cat)
	return t, err
}

// tracePath is where the spans of the traced replay are written.
func (r *runState) tracePath() string {
	return filepath.Join(r.opt.root, buildDir, "trace-"+r.w.name+".json")
}

func (r *runState) writeTrace(spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(r.tracePath(), data, 0o644)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerMetrics runs the traced phase and assembles every per-layer
// metric: counts scraped during the timed HTTP passes (S) and times from
// the in-process replay and the micro-probes (T).
func (r *runState) perLayerMetrics(m *measured) (map[string]float64, error) {
	t, err := r.tracedRun()
	if err != nil {
		return nil, err
	}
	if err := r.writeTrace(t.spans); err != nil {
		return nil, err
	}
	r.spanSummary = summarize(t.spans)
	sum := r.spanSummary
	// perCall is the mean duration of a span; span x.y feeds metric
	// x.y_us_per_op.
	perCall := func(name string) float64 {
		s := sum[name]
		if s == nil {
			return 0
		}
		r.probeSamples[name+"_us_per_op"] = s.calls
		return us(s.total) / float64(s.calls)
	}

	d := m.delta
	requests := float64(len(r.ops) * m.passes)
	writes := float64(r.writes() * m.passes)
	all := func(family string) float64 { return d[family+`{shard="all"}`] }
	var perShardFetched, results, plans float64
	for k, v := range d {
		switch {
		case strings.HasPrefix(k, "sk_query_objects_fetched_total{") && k != `sk_query_objects_fetched_total{shard="all"}`:
			perShardFetched += v
		case strings.HasPrefix(k, "sk_query_results_total{"):
			results += v
		case strings.HasPrefix(k, "sk_skql_plans_total{"):
			plans += v
		}
	}
	planShare := func(path string) float64 { return ratio(d[`sk_skql_plans_total{path="`+path+`"}`], plans) }

	var reads, writeLat []time.Duration
	var headClient time.Duration
	for i := range r.ops {
		if r.ops[i].write() {
			writeLat = append(writeLat, r.minLat[i])
		} else {
			reads = append(reads, r.minLat[i])
		}
		if i < t.headOps {
			headClient += r.minLat[i]
		}
	}
	reads, writeLat = sortedCopy(reads), sortedCopy(writeLat)

	imbalance := 0.0
	if n := len(m.stats.Shards); n > 0 {
		most, total := 0, 0
		for _, s := range m.stats.Shards {
			total += s.Objects
			if s.Objects > most {
				most = s.Objects
			}
		}
		imbalance = ratio(float64(most)*float64(n), float64(total))
	}
	random, sequential := ioBlocks(d, "random"), ioBlocks(d, "sequential")
	modeled := storage.DefaultCostModel().Time(storage.Stats{RandomReads: uint64(random), SequentialReads: uint64(sequential)})

	v := map[string]float64{
		"http.overhead_us_per_op": (us(headClient) - us(t.headTime)) / float64(t.headOps),
		"http.encode_us_per_op":   perCall("http.encode"),
		"http.resp_bytes_per_op":  float64(r.respBytes) / requests,
		"http.raw_p99_ms":         ms(percentile(sortedCopy(r.rawLat), 0.99)),
		"http.read_p50_ms":        ms(percentile(reads, 0.50)),
		"http.write_p50_ms":       ms(percentile(writeLat, 0.50)),
		"http.write_p90_ms":       ms(percentile(writeLat, 0.90)),

		"skql.parse_us_per_op": perCall("skql.parse"),
		"skql.plan_us_per_op":  perCall("skql.plan"),
		"skql.exec_us_per_op":  perCall("skql.exec"),
		"skql.server_us_per_op": 1e6 * ratio(d["sk_skql_parse_seconds_sum"]+d["sk_skql_plan_seconds_sum"]+d["sk_skql_exec_seconds_sum"],
			d["sk_skql_exec_seconds_count"]),
		"skql.plans_ir2_share":          planShare("ir2"),
		"skql.plans_iio_share":          planShare("iio"),
		"skql.plans_rtree_share":        planShare("rtree"),
		"skql.plans_ranked_share":       planShare("ranked"),
		"skql.rows_examined_per_result": ratio(all("sk_query_objects_fetched_total"), results),

		"shard.imbalance":              imbalance,
		"shard.objects_fetched_per_op": perShardFetched / requests,

		"engine.topk_us_per_op":   perCall("engine.topk"),
		"engine.ranked_us_per_op": perCall("engine.ranked"),
		"engine.add_us_per_op":    perCall("engine.add"),
		"engine.flush_us_per_op":  perCall("engine.flush"),
		"engine.delete_us_per_op": perCall("engine.delete"),
		"engine.allocs_per_op":    float64(t.allocs) / float64(t.ops),

		"rtree.nodes_expanded_per_op": all("sk_query_nodes_expanded_total") / requests,
		"rtree.entries_pruned_per_op": all("sk_query_entries_pruned_total") / requests,
		"rtree.height":                float64(m.stats.Engine.TreeHeight),

		"sigfile.false_positives_per_op": all("sk_query_sig_false_positives_total") / requests,
		"sigfile.fp_ratio":               ratio(all("sk_query_sig_false_positives_total"), all("sk_query_objects_fetched_total")),

		"nodecache.hit_ratio":               ratio(d["sk_nodecache_hits"], d["sk_nodecache_hits"]+d["sk_nodecache_misses"]),
		"nodecache.evictions_per_op":        d["sk_nodecache_evictions"] / requests,
		"nodecache.invalidations_per_write": ratio(d["sk_nodecache_invalidations"], writes),

		"objstore.objects_fetched_per_op": all("sk_query_objects_fetched_total") / requests,

		"wal.appends_per_write": ratio(d["sk_wal_appends_total"], writes),
		"wal.fsyncs_per_write":  ratio(d["sk_wal_fsync_seconds_count"], writes),
		"wal.bytes_per_write":   ratio(float64(m.walBytes), writes),
		"wal.fsync_ms_mean":     1e3 * ratio(d["sk_wal_fsync_seconds_sum"], d["sk_wal_fsync_seconds_count"]),

		"storage.random_blocks_per_op":     random / requests,
		"storage.sequential_blocks_per_op": sequential / requests,
		"storage.modeled_io_ms_per_op":     ms(modeled) / requests,
		"storage.index_bytes":              float64(m.idxBytes),
		"storage.objects_bytes":            float64(m.objBytes),

		"harness.speed_ratio":          median(r.cal.speeds),
		"harness.trace_overhead_ratio": ratio(float64(t.tracedTime), float64(t.untraced)),
		"harness.pass_spread":          ratio(float64(slices.Max(r.passTimes)), float64(slices.Min(r.passTimes))),
		"harness.ops":                  float64(len(r.ops)),
	}
	for name, val := range t.probes {
		v[name] = val
	}
	return v, nil
}

// reportSpans prints total and self time per span name.
func (r *runState) reportSpans(w io.Writer) {
	names := make([]string, 0, len(r.spanSummary))
	for n := range r.spanSummary {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "   span\tcalls\ttotal ms\tself ms")
	for _, n := range names {
		s := r.spanSummary[n]
		fmt.Fprintf(tw, "   %s\t%d\t%.3f\t%.3f\n", n, s.calls, ms(s.total), ms(s.self))
	}
	tw.Flush() //nolint:errcheck // report to stdout
}

// shardedTopK times the parallel fan-out against the serial coordinated
// merge on the same queries; both are 0 on a single engine.
func shardedTopK(b backend, queries []op) (parallel, serial time.Duration, err error) {
	s, ok := b.(*shard.ShardedEngine)
	if !ok {
		return 0, 0, nil
	}
	start := time.Now()
	for i := range queries {
		if _, _, err := s.TopKWithStats(queries[i].k, queries[i].point[:], queries[i].words...); err != nil {
			return 0, 0, err
		}
	}
	parallel = time.Since(start)
	start = time.Now()
	for i := range queries {
		if _, err := s.TopKSerial(queries[i].k, queries[i].point[:], queries[i].words...); err != nil {
			return 0, 0, err
		}
	}
	return parallel, time.Since(start), nil
}
