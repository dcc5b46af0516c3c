package bench

import (
	"strings"
	"testing"

	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/storage"
)

// smallEnv builds a quick four-structure environment for harness tests.
func smallEnv(t *testing.T) *Env {
	t.Helper()
	e, err := BuildEnv(BuildConfig{
		Spec:     dataset.Restaurants(0.002), // 912 objects
		SigBytes: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBuildEnvAllStructures(t *testing.T) {
	e := smallEnv(t)
	for _, m := range AllMethods {
		if !e.has(m) {
			t.Errorf("method %s not built", m)
		}
	}
	if e.Store.NumObjects() != e.Stats.Objects {
		t.Errorf("store %d objects, stats %d", e.Store.NumObjects(), e.Stats.Objects)
	}
	if e.IR2.RTree().Len() != e.Stats.Objects || e.MIR2.RTree().Len() != e.Stats.Objects {
		t.Error("trees incomplete")
	}
	if err := e.IR2.RTree().CheckInvariants(); err != nil {
		t.Errorf("IR2 invariants: %v", err)
	}
	if err := e.MIR2.RTree().CheckInvariants(); err != nil {
		t.Errorf("MIR2 invariants: %v", err)
	}
}

func TestBuildEnvSelectedMethods(t *testing.T) {
	e, err := BuildEnv(BuildConfig{
		Spec:     dataset.Restaurants(0.001),
		SigBytes: 8,
		Methods:  []Method{MethodIR2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !e.has(MethodIR2) || e.has(MethodRTree) || e.has(MethodIIO) || e.has(MethodMIR2) {
		t.Error("method selection ignored")
	}
	if _, err := e.Measure(MethodRTree, nil, storage.DefaultCostModel()); err == nil {
		t.Error("measuring an unbuilt method succeeded")
	}
}

func TestBuildEnvValidation(t *testing.T) {
	if _, err := BuildEnv(BuildConfig{Spec: dataset.Restaurants(0.001)}); err == nil {
		t.Error("SigBytes 0 accepted")
	}
}

func TestMakeQueriesDeterministicAndAnswerable(t *testing.T) {
	e := smallEnv(t)
	q1, err := e.MakeQueries(20, 10, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.MakeQueries(20, 10, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range q1 {
		if !q1[i].P.Equal(q2[i].P) || strings.Join(q1[i].Keywords, ",") != strings.Join(q2[i].Keywords, ",") {
			t.Fatalf("query %d differs across identical seeds", i)
		}
		if q1[i].K != 10 || len(q1[i].Keywords) != 2 {
			t.Fatalf("query %d malformed: %+v", i, q1[i])
		}
		if q1[i].Keywords[0] == q1[i].Keywords[1] {
			t.Fatalf("duplicate keywords in query %d", i)
		}
	}
	// Most frequent-band conjunctions should have at least one answer.
	withResults := 0
	for _, q := range q1 {
		n, _, err := e.RunQuery(MethodIIO, q)
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			withResults++
		}
	}
	if withResults < len(q1)/2 {
		t.Errorf("only %d/%d workload queries have answers", withResults, len(q1))
	}
}

func TestAllMethodsAgreeOnWorkload(t *testing.T) {
	e := smallEnv(t)
	queries, err := e.MakeQueries(15, 5, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		var counts [4]int
		for i, m := range AllMethods {
			n, _, err := e.RunQuery(m, q)
			if err != nil {
				t.Fatal(err)
			}
			counts[i] = n
		}
		for i := 1; i < 4; i++ {
			if counts[i] != counts[0] {
				t.Fatalf("query %d: result counts diverge: %v", qi, counts)
			}
		}
	}
}

func TestMeasureProducesSaneNumbers(t *testing.T) {
	e := smallEnv(t)
	queries, err := e.MakeQueries(10, 5, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	cm := storage.DefaultCostModel()
	for _, m := range AllMethods {
		meas, err := e.Measure(m, queries, cm)
		if err != nil {
			t.Fatal(err)
		}
		if meas.Queries != 10 {
			t.Errorf("%s: queries = %d", m, meas.Queries)
		}
		if meas.AvgRandom <= 0 {
			t.Errorf("%s: no random accesses measured", m)
		}
		if meas.AvgDiskTime <= 0 {
			t.Errorf("%s: no disk time", m)
		}
		if meas.TotalTime() < meas.AvgDiskTime {
			t.Errorf("%s: total < disk", m)
		}
	}
	// Empty workload.
	meas, err := e.Measure(MethodIR2, nil, cm)
	if err != nil || meas.Queries != 0 {
		t.Errorf("empty workload: %+v, %v", meas, err)
	}
}

func TestIR2BeatsRTreeBaseline(t *testing.T) {
	// The headline result: IR² random accesses well below the R-Tree
	// baseline's on a frequent-band conjunctive workload.
	e := smallEnv(t)
	queries, err := e.MakeQueries(20, 10, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	cm := storage.DefaultCostModel()
	rt, err := e.Measure(MethodRTree, queries, cm)
	if err != nil {
		t.Fatal(err)
	}
	ir2, err := e.Measure(MethodIR2, queries, cm)
	if err != nil {
		t.Fatal(err)
	}
	if ir2.AvgObjects >= rt.AvgObjects {
		t.Errorf("IR2 objects %g >= R-Tree %g", ir2.AvgObjects, rt.AvgObjects)
	}
	if ir2.AvgRandom >= rt.AvgRandom {
		t.Errorf("IR2 random %g >= R-Tree %g", ir2.AvgRandom, rt.AvgRandom)
	}
}

func TestVaryKTable(t *testing.T) {
	e := smallEnv(t)
	tbl, err := VaryK(e, []int{1, 10}, 2, 5, 19, storage.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2*len(AllMethods) {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Vary k", "R-Tree", "IIO", "IR2-Tree", "MIR2-Tree", "k=1", "k=10"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestVaryKeywordsTable(t *testing.T) {
	e := smallEnv(t)
	tbl, err := VaryKeywords(e, []int{1, 3}, 5, 5, 23, storage.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2*len(AllMethods) {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
}

func TestVarySigLenTable(t *testing.T) {
	e := smallEnv(t)
	tbl, err := VarySigLen(e, []int{2, 16}, 5, 2, 5, 29, storage.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	// 2 baseline rows + 2 lengths × 2 tree methods.
	if len(tbl.Rows) != 2+2*2 {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sig=16B") {
		t.Error("missing sweep label")
	}
}

func TestTables1And2(t *testing.T) {
	e := smallEnv(t)
	t1 := Table1(e)
	if len(t1.Rows) != 1 || t1.Rows[0][0] != "restaurants" {
		t.Errorf("Table1 rows: %v", t1.Rows)
	}
	t2 := Table2(e)
	if len(t2.Rows) != 1 {
		t.Errorf("Table2 rows: %v", t2.Rows)
	}
	for i := 1; i <= 4; i++ {
		if t2.Rows[0][i] == "-" {
			t.Errorf("Table2 column %d empty", i)
		}
	}
}

func TestMaintenanceTable(t *testing.T) {
	e := smallEnv(t)
	tbl, err := Maintenance(e, 5, 31, storage.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	// 3 methods × 2 ops.
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Trees must stay consistent after the batch.
	if err := e.IR2.RTree().CheckInvariants(); err != nil {
		t.Errorf("IR2 after maintenance: %v", err)
	}
	if err := e.MIR2.RTree().CheckInvariants(); err != nil {
		t.Errorf("MIR2 after maintenance: %v", err)
	}
}

func TestSelectivityTable(t *testing.T) {
	e := smallEnv(t)
	tbl, err := Selectivity(e, []int{0, 100}, 5, 1, 5, 37, storage.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2*len(AllMethods) {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
}

func TestKeywordsAtRank(t *testing.T) {
	e := smallEnv(t)
	kw := e.KeywordsAtRank(0, 2)
	if len(kw) != 2 {
		t.Fatalf("kw = %v", kw)
	}
	// Rank 0 is the most frequent word.
	if e.Stats.DocFreq[kw[0]] < e.Stats.DocFreq[kw[1]] {
		t.Error("rank order violated")
	}
	// Out-of-range rank clamps.
	tail := e.KeywordsAtRank(1<<20, 2)
	if len(tail) == 0 {
		t.Error("tail rank returned nothing")
	}
	if neg := e.KeywordsAtRank(-5, 1); len(neg) != 1 || neg[0] != kw[0] {
		t.Error("negative rank not clamped to head")
	}
}
