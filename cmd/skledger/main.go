// Command skledger writes and checks the benchmark ledger: the BENCH_<pr>.json
// files at the repository root, each the alternating-pairs comparison of a
// change against its parent that scripts/pairs.sh runs.
//
// Usage:
//
//	skledger pairs -parent SHA -head SHA -command TEXT DIR
//	skledger check FILE...
//
// pairs reads the `go test -bench` outputs DIR holds, parent.<i>.txt and
// head.<i>.txt for runs i = 1..n, and prints the ledger entry as JSON: per
// benchmark and metric (ns/op, B/op, allocs/op and every custom metric),
// each side's median, quartiles and values, and in how many pairs the head
// was better and worse. A run that repeats a benchmark (-test.count) counts
// the median of its repetitions. For ns/op it also gives the median
// head/parent ratio over the pairs with a bootstrap 95 % interval, labelled
// better or worse only when the interval excludes 1 and unresolved
// otherwise. A metric whose unit ends in "/s" is better higher, every other
// lower. check validates the schema of each file — entries written before
// the ratio was added have none — and exits 1 on the first it rejects.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Entry is one ledger file.
type Entry struct {
	Parent     string                       `json:"parent"`
	Head       string                       `json:"head"`
	Command    string                       `json:"command"`
	Runs       int                          `json:"runs"`
	Benchmarks map[string]map[string]Metric `json:"benchmarks"`
}

// Metric is one benchmark metric over the pairs.
type Metric struct {
	Better     string `json:"better"` // "lower" or "higher"
	Parent     Side   `json:"parent"`
	Head       Side   `json:"head"`
	HeadBetter int    `json:"head_better"` // pairs in which the head was strictly better
	HeadWorse  int    `json:"head_worse"`  // and strictly worse
	Ratio      *Ratio `json:"ratio,omitempty"`
}

// Ratio is a metric's head/parent ratio over the pairs: the median of the
// per-pair ratios, a bootstrap 95 % interval of that median, and what the
// interval supports — "better" or "worse" when it excludes 1, else
// "unresolved".
type Ratio struct {
	Median float64 `json:"median"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Label  string  `json:"label"`
}

// ratioUnit is the metric a ledger entry gives a Ratio.
const ratioUnit = "ns/op"

// Side is one side's values, in run order, and their quartiles.
type Side struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "pairs":
		err = pairs(os.Args[2:])
	case "check":
		for _, f := range os.Args[2:] {
			if err = check(f); err != nil {
				break
			}
		}
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "skledger:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: skledger pairs -parent SHA -head SHA -command TEXT DIR | skledger check FILE...")
	os.Exit(2)
}

// pairs summarizes DIR's runs and prints the entry.
func pairs(args []string) error {
	fs := flag.NewFlagSet("pairs", flag.ExitOnError)
	e := Entry{Benchmarks: map[string]map[string]Metric{}}
	fs.StringVar(&e.Parent, "parent", "", "the parent commit")
	fs.StringVar(&e.Head, "head", "", "the commit compared with it")
	fs.StringVar(&e.Command, "command", "", "the command that ran the pairs")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		usage()
	}
	runs := map[string][]map[string]map[string]float64{} // side → run → benchmark → unit → value
	for _, side := range []string{"parent", "head"} {
		for i := 1; ; i++ {
			got, err := parseRun(filepath.Join(fs.Arg(0), fmt.Sprintf("%s.%d.txt", side, i)))
			if errors.Is(err, os.ErrNotExist) {
				break
			}
			if err != nil {
				return err
			}
			runs[side] = append(runs[side], got)
		}
	}
	e.Runs = len(runs["parent"])
	if e.Runs == 0 || len(runs["head"]) != e.Runs {
		return fmt.Errorf("%s: %d parent and %d head runs", fs.Arg(0), len(runs["parent"]), len(runs["head"]))
	}
	for name, units := range runs["parent"][0] {
		e.Benchmarks[name] = map[string]Metric{}
		for unit := range units {
			m := Metric{Better: "lower"}
			if strings.HasSuffix(unit, "/s") {
				m.Better = "higher"
			}
			var pv, hv []float64
			for i := 0; i < e.Runs; i++ {
				p, okp := runs["parent"][i][name][unit]
				h, okh := runs["head"][i][name][unit]
				if !okp || !okh {
					return fmt.Errorf("run %d: %s %s missing on a side", i+1, name, unit)
				}
				pv, hv = append(pv, p), append(hv, h)
			}
			m.Parent, m.Head = summarize(pv), summarize(hv)
			m.HeadBetter, m.HeadWorse = count(m.Better, pv, hv)
			if unit == ratioUnit {
				m.Ratio = ratio(m.Better, pv, hv)
			}
			e.Benchmarks[name][unit] = m
		}
	}
	out, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", out)
	return err
}

// count returns the pairs (parent[i], head[i]) in which the head is
// strictly better and strictly worse.
func count(better string, parent, head []float64) (b, w int) {
	for i, p := range parent {
		h := head[i]
		switch {
		case h == p:
		case (h < p) == (better == "lower"):
			b++
		default:
			w++
		}
	}
	return b, w
}

// ratio returns the median head/parent ratio of the pairs, its bootstrap
// 95 % interval and its label, or nil when a parent value is not positive.
// The resampling is seeded, so the same values give the same interval.
func ratio(better string, parent, head []float64) *Ratio {
	r := make([]float64, len(parent))
	for i, p := range parent {
		if p <= 0 {
			return nil
		}
		r[i] = head[i] / p
	}
	const resamples = 10000
	rng := rand.New(rand.NewPCG(1, 2))
	medians := make([]float64, resamples)
	sample := make([]float64, len(r))
	for b := range medians {
		for i := range sample {
			sample[i] = r[rng.IntN(len(r))]
		}
		medians[b] = summarize(sample).Median
	}
	slices.Sort(medians)
	out := &Ratio{Median: summarize(r).Median, Lo: quantile(medians, 0.025), Hi: quantile(medians, 0.975), Label: "unresolved"}
	below, above := out.Hi < 1, out.Lo > 1
	if better == "higher" {
		below, above = above, below
	}
	switch {
	case below:
		out.Label = "better"
	case above:
		out.Label = "worse"
	}
	return out
}

// parseRun reads one `go test -bench` output: benchmark → unit → value, the
// median of the benchmark's repetitions when the run has several.
func parseRun(path string) (map[string]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reps := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || len(fields)%2 != 0 {
			continue
		}
		units := reps[fields[0]]
		if units == nil {
			units = map[string][]float64{}
			reps[fields[0]] = units
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %q: %w", path, sc.Text(), err)
			}
			units[fields[i+1]] = append(units[fields[i+1]], v)
		}
	}
	if len(reps) == 0 && sc.Err() == nil {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	got := make(map[string]map[string]float64, len(reps))
	for name, units := range reps {
		got[name] = make(map[string]float64, len(units))
		for unit, values := range units {
			got[name][unit] = summarize(values).Median
		}
	}
	return got, sc.Err()
}

// summarize returns values with their median and quartiles, interpolated
// between the closest ranks.
func summarize(values []float64) Side {
	s := slices.Clone(values)
	slices.Sort(s)
	return Side{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Values: values}
}

// quantile returns the q-quantile of sorted values, interpolated between
// the closest ranks.
func quantile(sorted []float64, q float64) float64 {
	x := q * float64(len(sorted)-1)
	i := int(x)
	if i+1 >= len(sorted) {
		return sorted[i]
	}
	return sorted[i] + (x-float64(i))*(sorted[i+1]-sorted[i])
}

var ledgerName = regexp.MustCompile(`^BENCH_[0-9]+\.json$`)

// check validates one ledger file.
func check(path string) error {
	if !ledgerName.MatchString(filepath.Base(path)) {
		return fmt.Errorf("%s: name is not BENCH_<pr>.json", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var e Entry
	if err := dec.Decode(&e); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case e.Parent == "" || e.Head == "" || e.Command == "":
		return fmt.Errorf("%s: parent, head and command are required", path)
	case e.Runs < 1:
		return fmt.Errorf("%s: runs %d", path, e.Runs)
	case len(e.Benchmarks) == 0:
		return fmt.Errorf("%s: no benchmarks", path)
	}
	for name, metrics := range e.Benchmarks {
		if !strings.HasPrefix(name, "Benchmark") || len(metrics) == 0 {
			return fmt.Errorf("%s: benchmark %q has no metrics", path, name)
		}
		for unit, m := range metrics {
			where := fmt.Sprintf("%s: %s %s", path, name, unit)
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("%s: better %q", where, m.Better)
			}
			for _, s := range []Side{m.Parent, m.Head} {
				if len(s.Values) != e.Runs {
					return fmt.Errorf("%s: %d values for %d runs", where, len(s.Values), e.Runs)
				}
				if want := summarize(s.Values); want.Median != s.Median || want.Q1 != s.Q1 || want.Q3 != s.Q3 {
					return fmt.Errorf("%s: median and quartiles %v %v %v, the values give %v %v %v",
						where, s.Median, s.Q1, s.Q3, want.Median, want.Q1, want.Q3)
				}
			}
			if b, w := count(m.Better, m.Parent.Values, m.Head.Values); b != m.HeadBetter || w != m.HeadWorse {
				return fmt.Errorf("%s: %d better and %d worse pairs, the values give %d and %d", where, m.HeadBetter, m.HeadWorse, b, w)
			}
			if m.Ratio != nil {
				if want := ratio(m.Better, m.Parent.Values, m.Head.Values); want == nil || *want != *m.Ratio {
					return fmt.Errorf("%s: ratio %+v, the values give %+v", where, *m.Ratio, want)
				}
			}
		}
	}
	return nil
}
