package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	floatGaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind, floatGaugeKind:
		// Prometheus has a single gauge type; the int/float split is an
		// implementation detail of this package.
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labelled instance of a metric family. Exactly one of
// c/g/fg/h is non-nil, matching the family kind.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	fg     *FloatGauge
	h      *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name, help string
	kind       metricKind
	bounds     []float64 // histogram families only
	keys       []string  // deterministic series ordering
	series     map[string]*series
}

// Registry names and aggregates metrics, and renders them as Prometheus
// text exposition format or expvar-style JSON. Get-or-create calls take a
// short lock; the returned Counter/Gauge/Histogram handles are lock-free,
// so hot paths should hold on to them rather than re-looking them up per
// event. A Registry is safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	names    []string // registration order
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey renders labels canonically (sorted by key) for series lookup.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	return b.String()
}

// get returns the series for (name, labels), creating the family and
// series on first use. It panics if the same name is reused with a
// different kind or help string — one family, one meaning.
func (r *Registry) get(name, help string, kind metricKind, bounds []float64, labels []Label) *series {
	key := labelKey(labels)
	r.mu.RLock()
	if f, ok := r.families[name]; ok {
		if s, ok := f.series[key]; ok {
			r.mu.RUnlock()
			if f.kind != kind {
				//skvet:ignore nopanic registration-time programming error, caught by the obsreg pass statically
				panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, f.kind))
			}
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, series: make(map[string]*series)}
		r.families[name] = f
		r.names = append(r.names, name)
	}
	if f.kind != kind {
		//skvet:ignore nopanic registration-time programming error, caught by the obsreg pass statically
		panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, f.kind))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		switch kind {
		case counterKind:
			s.c = &Counter{}
		case gaugeKind:
			s.g = &Gauge{}
		case floatGaugeKind:
			s.fg = &FloatGauge{}
		case histogramKind:
			s.h = NewHistogram(f.bounds)
		}
		f.series[key] = s
		f.keys = append(f.keys, key)
		sort.Strings(f.keys)
	}
	return s
}

// Counter returns the counter series for (name, labels), registering it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.get(name, help, counterKind, nil, labels).c
}

// Gauge returns the gauge series for (name, labels), registering it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.get(name, help, gaugeKind, nil, labels).g
}

// FloatGauge returns the float-valued gauge series for (name, labels),
// registering it on first use.
func (r *Registry) FloatGauge(name, help string, labels ...Label) *FloatGauge {
	return r.get(name, help, floatGaugeKind, nil, labels).fg
}

// Histogram returns the histogram series for (name, labels), registering
// it on first use. The bounds of the first registration win for the whole
// family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.get(name, help, histogramKind, bounds, labels).h
}

// escapeLabelValue escapes a label value per the Prometheus text format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// renderLabels formats {k="v",...}, with extra appended last (used for the
// histogram "le" label). Returns "" for no labels.
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabelValue(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers, one line per
// sample, histograms as cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.names {
		f := r.families[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, key := range f.keys {
			s := f.series[key]
			var err error
			switch f.kind {
			case counterKind:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(s.labels), s.c.Value())
			case gaugeKind:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(s.labels), s.g.Value())
			case floatGaugeKind:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels), formatFloat(s.fg.Value()))
			case histogramKind:
				err = writePromHistogram(w, f.name, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, s *series) error {
	snap := s.h.Snapshot()
	var cum uint64
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		le := formatFloat(bound)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(s.labels, L("le", le)), cum); err != nil {
			return err
		}
	}
	cum += snap.Counts[len(snap.Counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(s.labels, L("le", "+Inf")), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(s.labels), formatFloat(snap.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(s.labels), cum)
	return err
}

// WriteJSON renders every registered metric as one JSON object in the
// style of expvar: metric name → value for unlabelled series, metric name
// → {"k=\"v\"": value} for labelled ones; histograms render as their
// snapshots.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.RLock()
	out := make(map[string]any, len(r.names))
	for name, f := range r.families {
		seriesVal := func(s *series) any {
			switch f.kind {
			case counterKind:
				return s.c.Value()
			case gaugeKind:
				return s.g.Value()
			case floatGaugeKind:
				return s.fg.Value()
			default:
				return s.h.Snapshot()
			}
		}
		if len(f.keys) == 1 && f.keys[0] == "" {
			out[name] = seriesVal(f.series[""])
			continue
		}
		m := make(map[string]any, len(f.keys))
		for _, key := range f.keys {
			m[key] = seriesVal(f.series[key])
		}
		out[name] = m
	}
	r.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// QueryRecorder is a Sink that aggregates QueryMetrics into a Registry
// under stable metric names:
//
//	sk_queries_total{op}                  queries finished, by kind
//	sk_query_errors_total{op}             queries that failed
//	sk_query_degraded_total{op}           partial answers (shards skipped)
//	sk_query_results_total{op}            results returned
//	sk_query_latency_seconds{op}          wall latency histogram
//	sk_query_random_blocks{op}            random blocks per query histogram
//	sk_query_nodes_expanded_total{shard}  index nodes loaded
//	sk_query_entries_pruned_total{shard}  entries dropped by signature
//	sk_query_objects_fetched_total{shard} objects read from the object file
//	sk_query_sig_false_positives_total{shard} fetched-then-rejected objects
//	sk_io_blocks_total{kind,shard}        disk blocks, random vs sequential
//
// Per-op families aggregate whole queries, so only whole-engine records
// (Shard < 0, rendered as shard="all") feed them; per-shard families take
// every record, keyed by the shard index, with the whole-engine record's
// series ("all") doubling as the engine-wide total.
//
// Each series is looked up in the registry once, by the first record that
// names its shard or op, and its handle is kept; a record then costs two map
// reads under a shared lock, not a label-key build and registry lookup per
// series.
type QueryRecorder struct {
	reg *Registry

	mu     sync.RWMutex
	shards map[int]*shardSeries // by QueryMetrics.Shard; negative is "all"
	ops    map[string]*opSeries
}

// shardSeries are one shard label's series of the per-shard families.
type shardSeries struct {
	nodes, pruned, fetched, falsePos, random, sequential *Counter
}

// opSeries are one op label's series of the per-op families. The error and
// degraded counters are not among them: those series appear only once a
// query fails or degrades, so that rare path still asks the registry.
type opSeries struct {
	queries, results      *Counter
	latency, randomBlocks *Histogram
}

// NewQueryRecorder returns a recorder aggregating into reg.
func NewQueryRecorder(reg *Registry) *QueryRecorder {
	return &QueryRecorder{reg: reg, shards: make(map[int]*shardSeries), ops: make(map[string]*opSeries)}
}

// RecordQuery implements Sink.
func (q *QueryRecorder) RecordQuery(m QueryMetrics) {
	s := q.shardHandles(m.Shard)
	s.nodes.Add(uint64(m.NodesLoaded))
	s.pruned.Add(uint64(m.EntriesPruned))
	s.fetched.Add(uint64(m.ObjectsLoaded))
	s.falsePos.Add(uint64(m.FalsePositives))
	s.random.Add(m.BlocksRandom)
	s.sequential.Add(m.BlocksSequential)

	if m.Shard >= 0 {
		return // per-shard slice of a query; op-level families take the aggregate record
	}
	op := m.Op
	if op == "" {
		op = "unknown"
	}
	o := q.opHandles(op)
	o.queries.Inc()
	if m.Err {
		q.reg.Counter("sk_query_errors_total", "Queries that returned an error.", L("op", op)).Inc()
	}
	if m.Degraded {
		q.reg.Counter("sk_query_degraded_total", "Queries answered partially with shards out of rotation.", L("op", op)).Inc()
	}
	o.results.Add(uint64(m.Results))
	o.latency.Observe(m.Latency.Seconds())
	o.randomBlocks.Observe(float64(m.BlocksRandom))
}

// shardHandles returns the per-shard families' series for a record's shard,
// resolving them on first use.
func (q *QueryRecorder) shardHandles(shard int) *shardSeries {
	if shard < 0 {
		shard = -1
	}
	q.mu.RLock()
	s, ok := q.shards[shard]
	q.mu.RUnlock()
	if ok {
		return s
	}
	label := "all"
	if shard >= 0 {
		label = strconv.Itoa(shard)
	}
	sl := L("shard", label)
	s = &shardSeries{
		nodes:      q.reg.Counter("sk_query_nodes_expanded_total", "Index nodes dequeued and loaded.", sl),
		pruned:     q.reg.Counter("sk_query_entries_pruned_total", "Entries dropped by the signature check.", sl),
		fetched:    q.reg.Counter("sk_query_objects_fetched_total", "Objects read from the object file.", sl),
		falsePos:   q.reg.Counter("sk_query_sig_false_positives_total", "Fetched objects rejected by text verification.", sl),
		random:     q.reg.Counter("sk_io_blocks_total", "Disk block accesses by kind.", L("kind", "random"), sl),
		sequential: q.reg.Counter("sk_io_blocks_total", "Disk block accesses by kind.", L("kind", "sequential"), sl),
	}
	q.mu.Lock()
	q.shards[shard] = s // a concurrent first record resolves the same handles
	q.mu.Unlock()
	return s
}

// opHandles returns the per-op families' series for op, resolving them on
// first use.
func (q *QueryRecorder) opHandles(op string) *opSeries {
	q.mu.RLock()
	o, ok := q.ops[op]
	q.mu.RUnlock()
	if ok {
		return o
	}
	ol := L("op", op)
	o = &opSeries{
		queries:      q.reg.Counter("sk_queries_total", "Queries finished, by kind.", ol),
		results:      q.reg.Counter("sk_query_results_total", "Results returned.", ol),
		latency:      q.reg.Histogram("sk_query_latency_seconds", "Query wall latency.", LatencyBuckets(), ol),
		randomBlocks: q.reg.Histogram("sk_query_random_blocks", "Random disk blocks per query.", BlockBuckets(), ol),
	}
	q.mu.Lock()
	q.ops[op] = o
	q.mu.Unlock()
	return o
}
