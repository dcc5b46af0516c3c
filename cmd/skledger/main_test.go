package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSummarizeAndCheck: a summarized entry passes check, and check
// rejects an entry whose quartiles or pair counts disagree with its values.
func TestSummarizeAndCheck(t *testing.T) {
	dir := t.TempDir()
	lines := map[string]string{
		"parent.1.txt": "BenchmarkX \t 100\t 300 ns/op\t 12.5 rows/op\t 40 B/op\t 2 allocs/op\nBenchmarkY/a \t 10\t 5 objects/s\n",
		"head.1.txt":   "BenchmarkX \t 100\t 200 ns/op\t 10 rows/op\t 40 B/op\t 2 allocs/op\nBenchmarkY/a \t 10\t 7 objects/s\n",
		"parent.2.txt": "BenchmarkX \t 100\t 310 ns/op\t 12.5 rows/op\t 40 B/op\t 2 allocs/op\nBenchmarkY/a \t 10\t 6 objects/s\n",
		"head.2.txt":   "BenchmarkX \t 100\t 320 ns/op\t 10 rows/op\t 40 B/op\t 1 allocs/op\nBenchmarkY/a \t 10\t 4 objects/s\n",
	}
	for name, text := range lines {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	runs := map[string][]map[string]map[string]float64{}
	for _, side := range []string{"parent", "head"} {
		for _, i := range []string{"1", "2"} {
			got, err := parseRun(filepath.Join(dir, side+"."+i+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			runs[side] = append(runs[side], got)
		}
	}
	if got := runs["head"][1]["BenchmarkX"]["allocs/op"]; got != 1 {
		t.Fatalf("head run 2 allocs/op = %v, want 1", got)
	}
	if s := summarize([]float64{4, 1, 3, 2}); s.Median != 2.5 || s.Q1 != 1.75 || s.Q3 != 3.25 {
		t.Fatalf("summarize = %+v", s)
	}
	if b, w := count("lower", []float64{300, 310}, []float64{200, 320}); b != 1 || w != 1 {
		t.Fatalf("count lower = %d, %d", b, w)
	}
	if b, w := count("higher", []float64{5, 6}, []float64{7, 6}); b != 1 || w != 0 {
		t.Fatalf("count higher = %d, %d", b, w)
	}

	good := Entry{Parent: "p", Head: "h", Command: "c", Runs: 2, Benchmarks: map[string]map[string]Metric{
		"BenchmarkX": {"ns/op": {Better: "lower", Parent: summarize([]float64{300, 310}), Head: summarize([]float64{200, 320}), HeadBetter: 1, HeadWorse: 1}},
	}}
	write := func(e Entry) string {
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "BENCH_7.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if err := check(write(good)); err != nil {
		t.Fatalf("check(good) = %v", err)
	}
	bad := good
	bad.Benchmarks = map[string]map[string]Metric{"BenchmarkX": {"ns/op": good.Benchmarks["BenchmarkX"]["ns/op"]}}
	m := bad.Benchmarks["BenchmarkX"]["ns/op"]
	m.HeadBetter = 2
	bad.Benchmarks["BenchmarkX"]["ns/op"] = m
	if err := check(write(bad)); err == nil || !strings.Contains(err.Error(), "better") {
		t.Fatalf("check(miscounted) = %v", err)
	}
	m.HeadBetter, m.Head.Median = 1, 1
	bad.Benchmarks["BenchmarkX"]["ns/op"] = m
	if err := check(write(bad)); err == nil || !strings.Contains(err.Error(), "quartiles") {
		t.Fatalf("check(wrong median) = %v", err)
	}
}

// TestRatioLabelsOnlyWhatTheIntervalResolves: on 50 synthetic sets of 10
// pairs with 5 % noise, a head planted 10 % slower is labelled worse in
// nearly every set (and, read as a higher-is-better metric, better), and a
// head drawn from the parent's own distribution is labelled unresolved in
// most — a percentile interval of a 10-pair median excludes 1 by chance more
// often than 5 % of the time (5 of these 50 sets). check accepts an entry with its ratio, rejects
// one whose ratio disagrees with its values, and accepts one written before
// ratios existed.
func TestRatioLabelsOnlyWhatTheIntervalResolves(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	noisy := func(scale float64) []float64 {
		v := make([]float64, 10)
		for i := range v {
			v[i] = scale * (1 + 0.05*(2*rng.Float64()-1))
		}
		return v
	}
	const sets = 50
	labels := map[string]map[string]int{}
	for _, c := range []struct {
		name   string
		scale  float64
		better string
	}{{"slower", 1100, "lower"}, {"slower, higher is better", 1100, "higher"}, {"equal", 1000, "lower"}} {
		labels[c.name] = map[string]int{}
		for i := 0; i < sets; i++ {
			r := ratio(c.better, noisy(1000), noisy(c.scale))
			if r == nil || r.Lo > r.Median || r.Median > r.Hi {
				t.Fatalf("%s: ratio %+v", c.name, r)
			}
			labels[c.name][r.Label]++
		}
	}
	t.Logf("labels per %d sets: %v", sets, labels)
	if n := labels["slower"]["worse"]; n < sets-2 {
		t.Errorf("a 10 %% slowdown is labelled worse in %d of %d sets: %v", n, sets, labels["slower"])
	}
	if n := labels["slower, higher is better"]["better"]; n < sets-2 {
		t.Errorf("a 10 %% rise of a higher-is-better metric is labelled better in %d of %d sets: %v", n, sets, labels["slower, higher is better"])
	}
	if n := labels["equal"]["unresolved"]; n < sets*8/10 {
		t.Errorf("equal distributions are labelled unresolved in %d of %d sets: %v", n, sets, labels["equal"])
	}
	if r := ratio("lower", []float64{0, 1}, []float64{1, 1}); r != nil {
		t.Errorf("ratio over a zero parent value: %+v", r)
	}

	parent := noisy(1000)
	head := noisy(1100)
	m := Metric{Better: "lower", Parent: summarize(parent), Head: summarize(head), Ratio: ratio("lower", parent, head)}
	m.HeadBetter, m.HeadWorse = count("lower", parent, head)
	e := Entry{Parent: "p", Head: "h", Command: "c", Runs: 10, Benchmarks: map[string]map[string]Metric{"BenchmarkX": {"ns/op": m}}}
	path := filepath.Join(t.TempDir(), "BENCH_8.json")
	write := func() {
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write()
	if err := check(path); err != nil {
		t.Fatalf("check(with ratio) = %v", err)
	}
	m.Ratio = &Ratio{Median: m.Ratio.Median, Lo: m.Ratio.Lo, Hi: m.Ratio.Hi, Label: "unresolved"}
	e.Benchmarks["BenchmarkX"]["ns/op"] = m
	write()
	if err := check(path); err == nil || !strings.Contains(err.Error(), "ratio") {
		t.Fatalf("check(mislabelled ratio) = %v", err)
	}
	m.Ratio = nil
	e.Benchmarks["BenchmarkX"]["ns/op"] = m
	write()
	if err := check(path); err != nil {
		t.Fatalf("check(without ratio) = %v", err)
	}
}

// TestParseRunTakesMedianOfRepetitions: a run with -test.count 3 counts the
// median of each metric's three values.
func TestParseRunTakesMedianOfRepetitions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "head.1.txt")
	text := "BenchmarkX \t 20\t 300 ns/op\t 7 B/op\nBenchmarkX \t 20\t 100 ns/op\t 7 B/op\nBenchmarkX \t 20\t 250 ns/op\t 9 B/op\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := parseRun(path)
	if err != nil {
		t.Fatal(err)
	}
	if x := got["BenchmarkX"]; x["ns/op"] != 250 || x["B/op"] != 7 {
		t.Fatalf("parseRun = %v, want the medians 250 ns/op and 7 B/op", x)
	}
}
