package bench

import (
	"testing"

	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/storage"
)

// TestSKQLPlannerNeverWorse is the E-X11 acceptance bar: on both
// workload extremes (rare keywords, ubiquitous keywords) the cost-based
// planner's modeled disk time must match the better forced physical
// path within tolerance. A planner that routes wrongly on either
// extreme pays the wrong path's full I/O and fails loudly here.
func TestSKQLPlannerNeverWorse(t *testing.T) {
	spec := dataset.Restaurants(0.01)
	env, err := BuildSKQLEnv(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	cm := storage.DefaultCostModel()
	const tolerance = 1.15
	for _, regime := range []string{"rare", "common"} {
		stmts := env.SKQLWorkload(regime, 10, 10, 1)
		times := make(map[Method]float64)
		for _, arm := range skqlArms {
			m, err := env.MeasureSKQL(arm.method, arm.force, stmts, cm, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", regime, arm.method, err)
			}
			times[arm.method] = m.AvgDiskTime.Seconds()
			t.Logf("%s %-9s disk=%v rand=%.1f seq=%.1f results=%.1f",
				regime, arm.method, m.AvgDiskTime, m.AvgRandom, m.AvgSequential, m.AvgResults)
		}
		best := times[MethodSKQLIR2]
		if times[MethodSKQLIIO] < best {
			best = times[MethodSKQLIIO]
		}
		if got := times[MethodSKQLPlanner]; got > best*tolerance {
			t.Errorf("%s workload: planner disk time %.4fs exceeds best forced %.4fs beyond %.0f%% tolerance",
				regime, got, best, (tolerance-1)*100)
		}
	}
}

// TestSKQLResultsAgreeAcrossArms pins that forcing a path changes only
// the I/O, never the answer: all three arms return the same result
// count per workload.
func TestSKQLResultsAgreeAcrossArms(t *testing.T) {
	env, err := BuildSKQLEnv(dataset.Restaurants(0.005), 8)
	if err != nil {
		t.Fatal(err)
	}
	cm := storage.DefaultCostModel()
	stmts := env.SKQLWorkload("rare", 5, 5, 42)
	var want float64
	for i, arm := range skqlArms {
		m, err := env.MeasureSKQL(arm.method, arm.force, stmts, cm, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = m.AvgResults
		} else if m.AvgResults != want {
			t.Errorf("%s: avg results %.2f, planner got %.2f", arm.method, m.AvgResults, want)
		}
	}
}

// TestSKQLTableShape checks the experiment emits 2 regimes x 3 arms plus
// the mixed read/write arm, in which every statement must find the
// object added just before it.
func TestSKQLTableShape(t *testing.T) {
	tbl, err := SKQL(dataset.Restaurants(0.005), 8, 5, 3, 7, storage.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 || len(tbl.Cells) != 7 {
		t.Fatalf("rows=%d cells=%d, want 7 each", len(tbl.Rows), len(tbl.Cells))
	}
	if mixed := tbl.Cells[6]; mixed.Sweep != "rare+add" || mixed.Meas.AvgResults < 1 {
		t.Fatalf("mixed arm: sweep %q, avg results %v; want rare+add with every add found", mixed.Sweep, mixed.Meas.AvgResults)
	}
	if tbl.Cells[0].Sweep != "rare" || tbl.Cells[3].Sweep != "common" {
		t.Fatalf("sweep order: %q, %q", tbl.Cells[0].Sweep, tbl.Cells[3].Sweep)
	}
}
