// Command skbench regenerates the paper's evaluation (Section 6): every
// figure and table, as aligned text tables, over synthetic datasets matched
// to the paper's Table 1 statistics.
//
// Usage:
//
//	skbench [flags]
//
//	-dataset     hotels | restaurants | both (default both)
//	-experiment  all | table1 | vary-k | vary-keywords | vary-siglen |
//	             selectivity | table2 | maintenance | ingest | repl |
//	             fence-churn | skql | ablate-capacity | ablate-build |
//	             parallel
//	             (default all; "all" covers the paper experiments; ingest,
//	             repl, fence-churn, skql, the ablations, and the
//	             sharded-throughput experiment run only when named; a
//	             comma-separated list runs several, e.g.
//	             -experiment vary-k,ingest,fence-churn)
//	-scale       dataset scale factor in (0,1]; 1 = full Table 1 sizes
//	             (default 0.02 — laptop-friendly)
//	-queries     queries per measured cell (default 20)
//	-sig         leaf signature length in bytes (default: paper's 189 for
//	             hotels, 8 for restaurants)
//	-capacity    R-Tree node capacity (default 0 = derive ~102 from 4 KB)
//	-seed        workload seed (default 1)
//	-json        also write the raw measurements (per-cell averages plus a
//	             per-query modeled-disk-time histogram) as
//	             BENCH_<experiment>.json
//	-out         directory for the -json report (default .)
//	-baseline    baseline report to compare against; exits non-zero when a
//	             cell's modeled disk time regresses beyond -regress
//	-regress     allowed relative disk-time growth vs -baseline (default 0.2)
//
// Block counts — and therefore modeled disk time — are seed-deterministic,
// so the -baseline comparison is exact across hosts: CI uses it to catch
// I/O regressions without trusting runner wall clocks.
//
// Example:
//
//	go run ./cmd/skbench -dataset restaurants -experiment vary-k -scale 0.05
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spatialkeyword/internal/bench"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/storage"
)

type config struct {
	dataset    string
	experiment string
	scale      float64
	queries    int
	sig        int
	capacity   int
	seed       int64
	csvOut     bool
	jsonOut    bool
	outDir     string
	baseline   string
	regress    float64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.dataset, "dataset", "both", "hotels, restaurants, or both")
	flag.StringVar(&cfg.experiment, "experiment", "all", "which experiment to run")
	flag.Float64Var(&cfg.scale, "scale", 0.02, "dataset scale in (0,1]")
	flag.IntVar(&cfg.queries, "queries", 20, "queries per measured cell")
	flag.IntVar(&cfg.sig, "sig", 0, "leaf signature bytes (0 = paper default per dataset)")
	flag.IntVar(&cfg.capacity, "capacity", 0, "node capacity override (0 = derive from block size)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.BoolVar(&cfg.csvOut, "csv", false, "emit CSV instead of aligned text")
	flag.BoolVar(&cfg.jsonOut, "json", false, "also write BENCH_<experiment>.json with raw measurements")
	flag.StringVar(&cfg.outDir, "out", ".", "directory for the -json report")
	flag.StringVar(&cfg.baseline, "baseline", "", "baseline report to compare modeled disk time against")
	flag.Float64Var(&cfg.regress, "regress", 0.2, "allowed relative disk-time growth vs -baseline")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "skbench:", err)
		os.Exit(1)
	}
}

// experimentPlan captures the paper's sweep values per dataset.
type experimentPlan struct {
	spec       dataset.Spec
	sigBytes   int
	ks         []int
	keywords   []int
	sigLens    []int
	fixedK     int
	fixedWords int
}

func plans(cfg config) []experimentPlan {
	var out []experimentPlan
	if cfg.dataset == "hotels" || cfg.dataset == "both" {
		p := experimentPlan{
			spec:       dataset.Hotels(cfg.scale),
			sigBytes:   189, // paper's Hotels signature length
			ks:         []int{1, 5, 10, 20, 50},
			keywords:   []int{1, 2, 3, 4, 5},
			sigLens:    []int{64, 128, 189, 256, 384},
			fixedK:     10,
			fixedWords: 2,
		}
		if cfg.sig != 0 {
			p.sigBytes = cfg.sig
		}
		out = append(out, p)
	}
	if cfg.dataset == "restaurants" || cfg.dataset == "both" {
		p := experimentPlan{
			spec:       dataset.Restaurants(cfg.scale),
			sigBytes:   8, // paper's Restaurants signature length
			ks:         []int{1, 5, 10, 20, 50},
			keywords:   []int{1, 2, 3, 4, 5},
			sigLens:    []int{2, 4, 8, 16, 32},
			fixedK:     10,
			fixedWords: 2,
		}
		if cfg.sig != 0 {
			p.sigBytes = cfg.sig
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		fmt.Fprintf(os.Stderr, "skbench: unknown dataset %q\n", cfg.dataset)
		os.Exit(2)
	}
	return out
}

func run(cfg config) error {
	cm := storage.DefaultCostModel()
	wanted := make(map[string]bool)
	for _, name := range strings.Split(cfg.experiment, ",") {
		wanted[strings.TrimSpace(name)] = true
	}
	want := func(name string) bool { return wanted["all"] || wanted[name] }
	// The opt-in experiments (ablations, parallel, ingest) run only when
	// named explicitly — "all" covers just the paper experiments.
	named := func(name string) bool { return wanted[name] }
	var tables []*bench.Table
	render := func(t *bench.Table) error {
		tables = append(tables, t)
		if cfg.csvOut {
			fmt.Printf("# %s\n", t.Title)
			return t.WriteCSV(os.Stdout)
		}
		return t.Render(os.Stdout)
	}

	// Only the paper experiments share the per-dataset environments; the
	// ablations rebuild their own, and parallel/ingest need none.
	needEnv := false
	for _, name := range []string{"vary-k", "vary-keywords", "vary-siglen",
		"selectivity", "table1", "table2", "maintenance"} {
		needEnv = needEnv || want(name)
	}
	var envs []*bench.Env
	for _, p := range plans(cfg) {
		if !needEnv {
			break // the named experiments build their own environments below
		}
		fmt.Printf("building %s environment (scale %g: %d objects, sig %dB)...\n",
			p.spec.Name, cfg.scale, p.spec.NumObjects, p.sigBytes)
		start := time.Now()
		env, err := bench.BuildEnv(bench.BuildConfig{
			Spec:       p.spec,
			SigBytes:   p.sigBytes,
			MaxEntries: cfg.capacity,
		})
		if err != nil {
			return err
		}
		fmt.Printf("  built in %v (tree height %d, %d nodes)\n",
			time.Since(start).Round(time.Millisecond),
			env.IR2.RTree().Height(), env.IR2.RTree().NumNodes())
		envs = append(envs, env)

		if want("vary-k") {
			t, err := bench.VaryK(env, p.ks, p.fixedWords, cfg.queries, cfg.seed, cm)
			if err != nil {
				return err
			}
			if err := render(t); err != nil {
				return err
			}
		}
		if want("vary-keywords") {
			t, err := bench.VaryKeywords(env, p.keywords, p.fixedK, cfg.queries, cfg.seed, cm)
			if err != nil {
				return err
			}
			if err := render(t); err != nil {
				return err
			}
		}
		if want("vary-siglen") {
			t, err := bench.VarySigLen(env, p.sigLens, p.fixedK, p.fixedWords, cfg.queries, cfg.seed, cm)
			if err != nil {
				return err
			}
			if err := render(t); err != nil {
				return err
			}
		}
		if want("selectivity") {
			vocab := env.Stats.VocabUsed
			ranks := []int{0, vocab / 100, vocab / 10, vocab / 2, vocab - 2}
			t, err := bench.Selectivity(env, ranks, p.fixedK, 1, cfg.queries, cfg.seed, cm)
			if err != nil {
				return err
			}
			if err := render(t); err != nil {
				return err
			}
		}
	}

	if want("table1") {
		if err := render(bench.Table1(envs...)); err != nil {
			return err
		}
	}
	if want("table2") {
		if err := render(bench.Table2(envs...)); err != nil {
			return err
		}
	}
	if want("maintenance") {
		// Runs last: it mutates the trees.
		for _, env := range envs {
			t, err := bench.Maintenance(env, 20, cfg.seed, cm)
			if err != nil {
				return err
			}
			if err := render(t); err != nil {
				return err
			}
		}
	}

	// Ingest durability: checkpoint-per-op vs WAL group commit. Dataset-
	// independent (its workload is generated from the seed alone) and fully
	// deterministic, so it feeds the same baseline gate as vary-k.
	if named("ingest") {
		t, err := bench.IngestDurability(200, []int{1, 8, 32}, cfg.seed, cm)
		if err != nil {
			return err
		}
		if err := render(t); err != nil {
			return err
		}
	}

	// Replication catch-up: snapshot re-bootstrap vs log shipping at varying
	// lag. Like ingest, dataset-independent and fully deterministic, so it
	// feeds the same baseline gate.
	if named("repl") {
		t, err := bench.ReplCatchup(400, []int{16, 64, 400}, 8, cfg.seed, cm)
		if err != nil {
			return err
		}
		if err := render(t); err != nil {
			return err
		}
	}

	// Standing-query churn: the WAL mutation path with 1k/10k registered
	// fences evaluated per mutation. Disk cells are deterministic and gated;
	// the pruning-funnel ratios are the expect notes.
	if named("fence-churn") {
		t, err := bench.FenceChurn(300, []int{1000, 10000}, 8, cfg.seed, cm)
		if err != nil {
			return err
		}
		if err := render(t); err != nil {
			return err
		}
	}

	// SKQL planner routing (E-X11): rare vs common keyword workloads under
	// the cost-based planner and each forced physical path.
	if named("skql") {
		for _, p := range plans(cfg) {
			t, err := bench.SKQL(p.spec, p.sigBytes, p.fixedK, cfg.queries, cfg.seed, cm)
			if err != nil {
				return err
			}
			if err := render(t); err != nil {
				return err
			}
		}
	}

	// Extension ablations, run only when explicitly named (they rebuild
	// their own environments).
	for _, p := range plans(cfg) {
		base := bench.BuildConfig{Spec: p.spec, SigBytes: p.sigBytes, MaxEntries: cfg.capacity}
		var t *bench.Table
		var err error
		switch {
		case named("ablate-capacity"):
			t, err = bench.CapacityAblation(base, []int{8, 32, 0, 256}, p.fixedK, p.fixedWords, cfg.queries, cfg.seed, cm)
		case named("ablate-build"):
			t, err = bench.BulkBuildAblation(base, p.fixedK, p.fixedWords, cfg.queries, cfg.seed, cm)
		default:
			continue
		}
		if err != nil {
			return err
		}
		if err := render(t); err != nil {
			return err
		}
	}

	// Scale-out extension: sharded-engine throughput, run only when named
	// (wall-clock measurement, so it wants a quiet machine).
	if named("parallel") {
		for _, p := range plans(cfg) {
			t, err := bench.ParallelThroughput(p.spec, p.sigBytes,
				[]int{1, 2, 4, 8}, []int{1, 4, 16}, cfg.queries, cfg.seed)
			if err != nil {
				return err
			}
			if err := render(t); err != nil {
				return err
			}
			// Disk-time complement: same cost model as the paper figures,
			// one device per shard, so the numbers are host-independent.
			d, err := bench.ShardedDiskScaling(p.spec, p.sigBytes,
				[]int{1, 2, 4, 8}, 4*cfg.queries, cfg.seed, storage.DefaultCostModel())
			if err != nil {
				return err
			}
			if err := render(d); err != nil {
				return err
			}
		}
	}
	return report(cfg, tables)
}

// report writes the -json file and runs the -baseline comparison.
func report(cfg config, tables []*bench.Table) error {
	if !cfg.jsonOut && cfg.baseline == "" {
		return nil
	}
	rep := bench.NewReport(cfg.experiment, tables...)
	if cfg.jsonOut {
		path := filepath.Join(cfg.outDir, "BENCH_"+cfg.experiment+".json")
		if err := rep.WriteFile(path); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	if cfg.baseline != "" {
		base, err := bench.ReadReportFile(cfg.baseline)
		if err != nil {
			return err
		}
		regs := bench.Compare(base, rep, cfg.regress)
		for _, m := range regs {
			fmt.Fprintln(os.Stderr, "skbench: "+m)
		}
		if len(regs) > 0 {
			return fmt.Errorf("%d benchmark regression(s) vs %s", len(regs), cfg.baseline)
		}
		fmt.Printf("no disk-time regressions vs %s\n", cfg.baseline)
	}
	return nil
}
