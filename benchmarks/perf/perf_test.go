package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"spatialkeyword/internal/dataset"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifest checks BENCHMARK.json against the pipeline's limits and
// against the tables the harness emits from.
func TestManifest(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `perf -manifest`; regenerate it")
	}

	m := buildManifest()
	if len(m.Paths) != 1 || m.Paths[0] != "benchmarks/perf" {
		t.Errorf("paths = %v, want exactly [benchmarks/perf]", m.Paths)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
		name(d.Name)
		if d.Unit == "" || len(d.Unit) > 16 {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, *d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Bound != nil {
			setup = true
		}
	}
	if !setup {
		t.Error("end_to_end has no setup_s in seconds, lower is better")
	}
}

// TestEmission drives the real harness at a tiny scale against a skserve
// built for the test, and checks that each workload emits exactly the
// declared metrics in both modes with no failed operation.
func TestEmission(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs skserve")
	}
	root := t.TempDir()
	bin := filepath.Join(root, "skserve")
	if out, err := exec.Command("go", "build", "-o", bin, "spatialkeyword/cmd/skserve").CombinedOutput(); err != nil {
		t.Fatalf("build skserve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		if w.dataset.Name == "hotels" {
			w.dataset = dataset.Hotels(0.002)
		} else {
			w.dataset = dataset.Restaurants(0.002)
		}
		w.ops = 60 // three 20-op mixes
		for _, traced := range []bool{false, true} {
			opt := options{root: root, skserve: bin, seed: 7, seconds: runSeconds, passes: 1, opsScale: 1, setups: 1, traced: traced}
			res, err := runOne(context.Background(), w, opt, false)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s: metric %s not emitted", w.name, d.name)
				} else if mv.Unit != d.unit {
					t.Errorf("%s: metric %s unit %q, declared %q", w.name, d.name, mv.Unit, d.unit)
				}
				if !traced && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, d.name, mv.Value)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(root, buildDir, "run-*")); len(left) > 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}
