package main

import "encoding/json"

// runSeconds is the measuring time BENCHMARK.json asks the pipeline to pass
// as -seconds; the workloads' pass counts are sized for it.
const runSeconds = 10

// manifest mirrors the keys of BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// buildManifest derives BENCHMARK.json from the workload and metric tables,
// so the file and what the harness emits cannot drift apart:
// `perf -manifest > BENCHMARK.json` regenerates it, perf_test.go compares.
func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmarks/perf/run.sh"},
		Paths:      []string{"benchmarks/perf"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.name, Unit: d.unit, Better: d.better, Bound: &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	return m
}

func manifestJSON() ([]byte, error) {
	data, err := json.MarshalIndent(buildManifest(), "", "  ")
	return append(data, '\n'), err
}
