// Command perf is the wall-clock benchmark of the serving stack: it builds a
// durable snapshot through the public API, starts a real skserve child on a
// free loopback port, replays a fixed seeded op list over one keep-alive
// connection (closed loop, one client), validates every answer against an
// oracle, and reports eight end-to-end metrics per workload. With -trace 1
// it also replays the list in-process with spans around the calls into each
// layer and reports the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// buildDir is the directory under the checkout root that holds everything
// the benchmark writes: binaries, the Go build cache, per-run data
// directories and trace files.
const buildDir = ".bench_build"

// runLimit is the per-workload watchdog: the pipeline allows 180 s a run.
const runLimit = 170 * time.Second

// setupsPerRun is how many times an untraced run sets up; setup_s is built
// on their median.
const setupsPerRun = 3

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// Sizes of the run, for the ledger; not part of the result line.
	ops, passes, objects int
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var opt options
	var name string
	var trace int
	var selfcheck, printManifest bool
	flag.StringVar(&name, "workload", "all", "workload to run, or all")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for query points, keyword picks and op order")
	flag.IntVar(&opt.seconds, "seconds", 10, "nominal measuring time; fixes the number of timed passes")
	flag.IntVar(&trace, "trace", 0, "1 = also run the in-process traced replay and report per-layer metrics")
	flag.StringVar(&opt.root, "root", ".", "checkout root (where "+buildDir+" lives)")
	flag.IntVar(&opt.passes, "passes", 0, "timed passes (0 = derive from -seconds)")
	flag.Float64Var(&opt.opsScale, "ops-scale", 1, "scale the frozen op counts (local use)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "A/A mode: run every workload over ten seeds twice and compare against the bounds")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json as derived from the workload and metric tables, and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if printManifest {
		data, err := manifestJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data) //nolint:errcheck // stdout
		return
	}
	opt.traced = trace == 1
	root, err := filepath.Abs(opt.root)
	if err != nil {
		fatal(err)
	}
	opt.root, opt.setups = root, setupsPerRun
	opt.skserve = filepath.Join(root, buildDir, "skserve")
	if _, err := os.Stat(opt.skserve); err != nil {
		fatal(fmt.Errorf("skserve binary: %w (run.sh builds it)", err))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case selfcheck:
		err = runSelfcheck(ctx, opt)
	case name == "all":
		err = runAll(ctx, opt)
	default:
		w, ok := findWorkload(name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		var res *result
		if res, err = runOne(ctx, w, opt, true); err == nil {
			err = emit(res)
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perf:", err)
	os.Exit(1)
}

// errFailedOps makes the process exit non-zero after the result is printed.
var errFailedOps = errors.New("some operations failed")

func emit(res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errFailedOps
	}
	return nil
}

// runOne runs one workload under the watchdog: the untraced HTTP phase
// and, with opt.traced, the in-process traced replay.
func runOne(ctx context.Context, w workload, opt options, verbose bool) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	r, err := newRun(w, opt)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if opt.traced {
		r.opt.setups = 1 // setup_s is an end-to-end metric; a traced run reports none
	}
	m, err := r.measure(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	var values map[string]float64
	defs := endToEnd
	if opt.traced {
		defs = perLayer
		if values, err = r.perLayerMetrics(m); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
		}
	} else {
		values = r.endToEndMetrics(m)
	}

	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs)),
		ops:     len(r.ops), passes: m.passes, objects: len(r.c.objects)}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", w.name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if verbose {
		r.report(os.Stdout, m, defs, values)
	}
	return res, nil
}

// ledgerEntry is the last line of a -workload all run: every metric of
// every workload with the settings that produced it. Committed copies live
// in ledger/BENCH_<pr>.json.
type ledgerEntry struct {
	Go        string                    `json:"go"`
	NProc     int                       `json:"nproc"`
	Seed      int64                     `json:"seed"`
	Seconds   int                       `json:"seconds"`
	Setups    int                       `json:"setups"`
	Workloads map[string]ledgerWorkload `json:"workloads"`
}

type ledgerWorkload struct {
	Objects      int     `json:"objects"`
	Ops          int     `json:"ops"`
	Passes       int     `json:"passes"`
	TracedPasses int     `json:"traced_passes"`
	EndToEnd     *result `json:"end_to_end"`
	PerLayer     *result `json:"per_layer"`
}

// runAll is the local one-command form: every workload, untraced then
// traced, printing both tables; the last line is the ledger entry.
func runAll(ctx context.Context, opt options) error {
	entry := ledgerEntry{Go: runtime.Version(), NProc: runtime.NumCPU(), Seed: opt.seed,
		Seconds: opt.seconds, Setups: opt.setups, Workloads: map[string]ledgerWorkload{}}
	failed := false
	for _, w := range workloads {
		var lw ledgerWorkload
		for _, traced := range []bool{false, true} {
			o := opt
			o.traced = traced
			res, err := runOne(ctx, w, o, true)
			if err != nil {
				return err
			}
			failed = failed || !res.Correct
			if traced {
				lw.PerLayer, lw.TracedPasses = res, res.passes
			} else {
				lw.EndToEnd, lw.Objects, lw.Ops, lw.Passes = res, res.objects, res.ops, res.passes
			}
		}
		entry.Workloads[w.name] = lw
	}
	line, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed {
		return errFailedOps
	}
	return nil
}
