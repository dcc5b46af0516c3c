package main

import (
	"encoding/json"
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
