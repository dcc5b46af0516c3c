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
// was better and worse. A metric whose unit ends in "/s" is better higher,
// every other lower. check validates the schema of each file and exits 1 on
// the first it rejects.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
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
}

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

// parseRun reads one `go test -bench` output: benchmark → unit → value.
func parseRun(path string) (map[string]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	got := map[string]map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || len(fields)%2 != 0 {
			continue
		}
		units := map[string]float64{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %q: %w", path, sc.Text(), err)
			}
			units[fields[i+1]] = v
		}
		got[fields[0]] = units
	}
	if len(got) == 0 && sc.Err() == nil {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return got, sc.Err()
}

// summarize returns values with their median and quartiles, interpolated
// between the closest ranks.
func summarize(values []float64) Side {
	s := slices.Clone(values)
	slices.Sort(s)
	at := func(q float64) float64 {
		x := q * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[i]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return Side{Median: at(0.5), Q1: at(0.25), Q3: at(0.75), Values: values}
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
		}
	}
	return nil
}
