package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
)

// exactOnBothRounds lists the (workload, metric) pairs that are pure counts
// of a read-only single engine: the same seed must give bit-identical
// values in every round.
var exactOnBothRounds = map[string][]string{
	"topk_restaurants": {"io_blocks_per_op", "space_amp"},
	"ranked_hotels":    {"io_blocks_per_op", "space_amp"},
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the pipeline's acceptance check uses.
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// runSelfcheck is the A/A mode: every workload over the same seeds in each
// of several rounds (workload order reversed on every other round), with no
// code change in between. For each workload and end-to-end metric it prints
// the spread between seeds (interquartile range over median) and the shift
// of the median between rounds next to the metric's bound, and fails when
// either exceeds it. The output is Markdown; SELFCHECK.md is one such run.
func runSelfcheck(ctx context.Context, opt options) error {
	// The pipeline's acceptance check: ten seeds a workload, twice.
	const seeds, rounds = 10, 2
	// values[round][workload][metric] holds one value per seed.
	values := make([]map[string]map[string][]float64, rounds)
	for round := range values {
		values[round] = map[string]map[string][]float64{}
		order := slices.Clone(workloads)
		if round%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			byMetric := map[string][]float64{}
			values[round][w.name] = byMetric
			for s := 0; s < seeds; s++ {
				o := opt
				o.seed = opt.seed + int64(s)
				o.traced = false
				res, err := runOne(ctx, w, o, false)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", w.name, o.seed, res.Failed, res.Attempted)
				}
				for name, mv := range res.Metrics {
					byMetric[name] = append(byMetric[name], mv.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: round %d %s seed %d done\n", round+1, w.name, o.seed)
			}
		}
	}

	fmt.Printf("# A/A self-check\n\n")
	fmt.Printf("`-selfcheck -seed %d -seconds %d`: %d seeds a workload in each of %d rounds, on %d CPUs, %s. ",
		opt.seed, opt.seconds, seeds, rounds, runtime.NumCPU(), runtime.Version())
	fmt.Printf("Same code in every round; spread is the interquartile range of the per-seed values over their median, ")
	fmt.Printf("shift is how much worse the last round's median is than the first's. Both must stay within the bound ")
	fmt.Printf("(the spread of `setup_s` is reported but not gated).\n")
	failures := 0
	for _, w := range workloads {
		fmt.Printf("\n## %s\n\n| metric | unit | bound |", w.name)
		for round := 0; round < rounds; round++ {
			fmt.Printf(" median %d | spread %d |", round+1, round+1)
		}
		fmt.Printf(" shift | verdict |\n|---|---|---|")
		for round := 0; round < rounds; round++ {
			fmt.Printf("---|---|")
		}
		fmt.Printf("---|---|\n")
		for _, d := range endToEnd {
			fmt.Printf("| `%s` | %s | %.0f %% |", d.name, d.unit, 100*d.bound)
			ok := true
			medians := make([]float64, rounds)
			for round := 0; round < rounds; round++ {
				v := values[round][w.name][d.name]
				medians[round] = median(v)
				q1, q3 := quartiles(v)
				spread := ratio(q3-q1, medians[round])
				if spread > d.bound && d.name != "setup_s" {
					ok = false
				}
				fmt.Printf(" %.6g | %.2f %% |", medians[round], 100*spread)
			}
			shift := ratio(medians[rounds-1]-medians[0], medians[0])
			if d.better == "higher" {
				shift = -shift
			}
			if shift > d.bound {
				ok = false
			}
			verdict := "ok"
			if !ok {
				verdict = "**exceeds bound**"
				failures++
			}
			fmt.Printf(" %+.2f %% | %s |\n", 100*shift, verdict)
		}
		for _, name := range exactOnBothRounds[w.name] {
			same := true
			for round := 1; round < rounds; round++ {
				for s := 0; s < seeds; s++ {
					if values[round][w.name][name][s] != values[0][w.name][name][s] {
						same = false
					}
				}
			}
			if same {
				fmt.Printf("\n`%s` is bit-identical between rounds for every seed.\n", name)
			} else {
				fmt.Printf("\n`%s` **differs between rounds for the same seed**.\n", name)
				failures++
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("selfcheck: %d checks failed", failures)
	}
	return nil
}
