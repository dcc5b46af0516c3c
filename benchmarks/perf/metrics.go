package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"text/tabwriter"
)

// metricDef declares one reported metric. BENCHMARK.json repeats these
// lists; perf_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the gated metrics, reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.15},
	{"latency_p50_ms", "ms", "lower", 0.15},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.15},
	{"io_blocks_per_op", "count", "lower", 0.10},
	{"server_rss_mb", "MB", "lower", 0.25},
	{"space_amp", "ratio", "lower", 0.02},
}

// perLayer are the informational metrics of single layers, <layer>.<metric>.
// Every workload reports all of them; a layer a workload does not exercise
// reports 0 for its scraped counts (wal.* on a read-only workload), while
// the micro-probes run on instances built from that workload's corpus.
var perLayer = []metricDef{
	{"http.overhead_us_per_op", "us", "lower", 0},
	{"http.encode_us_per_op", "us", "lower", 0},
	{"http.resp_bytes_per_op", "B", "lower", 0},
	{"http.raw_p99_ms", "ms", "lower", 0},
	{"http.read_p50_ms", "ms", "lower", 0},
	{"http.write_p50_ms", "ms", "lower", 0},
	{"http.write_p90_ms", "ms", "lower", 0},

	{"skql.parse_us_per_op", "us", "lower", 0},
	{"skql.plan_us_per_op", "us", "lower", 0},
	{"skql.exec_us_per_op", "us", "lower", 0},
	{"skql.server_us_per_op", "us", "lower", 0},
	{"skql.plans_ir2_share", "ratio", "higher", 0},
	{"skql.plans_iio_share", "ratio", "higher", 0},
	{"skql.plans_rtree_share", "ratio", "lower", 0},
	{"skql.plans_ranked_share", "ratio", "lower", 0},
	{"skql.ensure_index_ms", "ms", "lower", 0},
	{"skql.rows_examined_per_result", "ratio", "lower", 0},

	{"shard.topk_parallel_us", "us", "lower", 0},
	{"shard.topk_serial_us", "us", "lower", 0},
	{"shard.imbalance", "ratio", "lower", 0},
	{"shard.objects_fetched_per_op", "count", "lower", 0},

	{"engine.topk_us_per_op", "us", "lower", 0},
	{"engine.ranked_us_per_op", "us", "lower", 0},
	{"engine.add_us_per_op", "us", "lower", 0},
	{"engine.flush_us_per_op", "us", "lower", 0},
	{"engine.delete_us_per_op", "us", "lower", 0},
	{"engine.allocs_per_op", "count", "lower", 0},

	{"rtree.nodes_expanded_per_op", "count", "lower", 0},
	{"rtree.entries_pruned_per_op", "count", "higher", 0},
	{"rtree.nn10_us", "us", "lower", 0},
	{"rtree.insert_us", "us", "lower", 0},
	{"rtree.height", "count", "lower", 0},
	{"rtree.nodes", "count", "lower", 0},

	{"sigfile.false_positives_per_op", "count", "lower", 0},
	{"sigfile.fp_ratio", "ratio", "lower", 0},
	{"sigfile.match_ns", "ns", "lower", 0},
	{"sigfile.docsig_us", "us", "lower", 0},

	{"nodecache.hit_ratio", "ratio", "higher", 0},
	{"nodecache.evictions_per_op", "count", "lower", 0},
	{"nodecache.invalidations_per_write", "count", "lower", 0},

	{"objstore.objects_fetched_per_op", "count", "lower", 0},
	{"objstore.get_us", "us", "lower", 0},
	{"objstore.get_filtered_us", "us", "lower", 0},
	{"objstore.append_us", "us", "lower", 0},

	{"invindex.intersect_us", "us", "lower", 0},
	{"invindex.build_ms", "ms", "lower", 0},

	{"irscore.score_us_per_doc", "us", "lower", 0},
	{"textutil.tokens_us_per_doc", "us", "lower", 0},

	{"wal.appends_per_write", "count", "lower", 0},
	{"wal.fsyncs_per_write", "count", "lower", 0},
	{"wal.bytes_per_write", "B", "lower", 0},
	{"wal.fsync_ms_mean", "ms", "lower", 0},
	{"wal.append_us", "us", "lower", 0},

	{"storage.random_blocks_per_op", "count", "lower", 0},
	{"storage.sequential_blocks_per_op", "count", "lower", 0},
	{"storage.modeled_io_ms_per_op", "ms", "lower", 0},
	{"storage.index_bytes", "B", "lower", 0},
	{"storage.objects_bytes", "B", "lower", 0},

	{"harness.speed_ratio", "ratio", "lower", 0},
	{"harness.trace_overhead_ratio", "ratio", "lower", 0},
	{"harness.pass_spread", "ratio", "lower", 0},
	{"harness.ops", "count", "higher", 0},
}

// report prints the run's effective settings and every metric by name with
// its unit and the number of samples behind it.
func (r *runState) report(w io.Writer, m *measured, defs []metricDef, values map[string]float64) {
	kind := "end-to-end"
	if r.opt.traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s (%s): seed=%d ops=%d passes=%d setups=%d seconds=%d ops-scale=%g nproc=%d %s\n",
		r.w.name, kind, r.opt.seed, len(r.ops), m.passes, r.opt.setups, r.opt.seconds, r.opt.opsScale,
		runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(w, "   dataset=%s objects=%d sig=%dB shards=%d wal=%v closed loop, 1 client, 1 connection\n",
		r.w.dataset.Name, len(r.c.objects), r.w.sig, r.w.shards, r.w.wal)
	fmt.Fprintf(w, "   attempted=%d failed=%d refused=0; reference loop at %.3f x nominal (median of %d phases)\n",
		r.attempted, r.failed, median(r.cal.speeds), len(r.cal.speeds))
	if r.firstFailure != "" {
		fmt.Fprintf(w, "   first failure: %s\n", r.firstFailure)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "   metric\tvalue\tunit\tsamples")
	for _, d := range defs {
		fmt.Fprintf(tw, "   %s\t%.6g\t%s\t%s\n", d.name, values[d.name], d.unit, r.samples(d.name, m))
	}
	tw.Flush() //nolint:errcheck // report to stdout
	if r.opt.traced {
		r.reportSpans(w)
		fmt.Fprintf(w, "   spans written to %s\n", r.tracePath())
	}
}

// samples says how many observations stand behind a metric.
func (r *runState) samples(name string, m *measured) string {
	switch {
	case name == "setup_s":
		return fmt.Sprintf("%d set-ups", len(r.setupSeconds))
	case strings.HasPrefix(name, "latency_") || name == "http.read_p50_ms":
		return fmt.Sprintf("%d ops, min of %d passes", len(r.ops), m.passes)
	case name == "throughput_ops_s" || name == "cpu_ms_per_op" || name == "harness.pass_spread":
		return fmt.Sprintf("%d passes", m.passes)
	case name == "http.raw_p99_ms":
		return fmt.Sprintf("%d requests", len(r.rawLat))
	case strings.HasPrefix(name, "http.write_"):
		return fmt.Sprintf("%d writes, min of %d passes", r.writes(), m.passes)
	case r.probeSamples[name] > 0:
		return fmt.Sprintf("%d calls", r.probeSamples[name])
	default:
		return fmt.Sprintf("%d requests", len(r.ops)*m.passes)
	}
}

func (r *runState) writes() int {
	n := 0
	for i := range r.ops {
		if r.ops[i].write() {
			n++
		}
	}
	return n
}
