package skql

import (
	"strings"
	"testing"
	"time"

	"spatialkeyword"
)

// fakeInputs builds CostInputs over a synthetic corpus where term
// document frequencies come from a map (absent terms: df 0).
func fakeInputs(n int, df map[string]int) CostInputs {
	return CostInputs{
		NumObjects: n,
		DocFreq:    func(t string) int { return df[t] },
	}
}

// TestCostExtremes pins the paper's §6.B discussion: rare keywords
// favor the inverted-index-only plan, ubiquitous keywords favor the
// tree scan.
func TestCostExtremes(t *testing.T) {
	in := fakeInputs(100_000, map[string]int{
		"rare":   3,
		"rare2":  5,
		"common": 90_000,
	})
	k := 10

	rareIIO := in.EstimateIIO(k, []string{"rare", "rare2"}, 1)
	rareIR2 := in.EstimateIR2(k, []string{"rare", "rare2"}, 1)
	if rareIIO.Blocks >= rareIR2.Blocks {
		t.Fatalf("rare keywords: IIO %.1f blocks should beat IR2 %.1f", rareIIO.Blocks, rareIR2.Blocks)
	}

	comIIO := in.EstimateIIO(k, []string{"common"}, 1)
	comIR2 := in.EstimateIR2(k, []string{"common"}, 1)
	comRT := in.EstimateRTree(k, in.TermSelectivity("common"))
	if comIIO.Blocks <= comIR2.Blocks {
		t.Fatalf("common keyword: IR2 %.1f blocks should beat IIO %.1f", comIR2.Blocks, comIIO.Blocks)
	}
	if comRT.Blocks >= comIIO.Blocks {
		t.Fatalf("common keyword: R-Tree %.1f blocks should beat IIO %.1f", comRT.Blocks, comIIO.Blocks)
	}
}

// TestCostEstimateFields sanity-checks the per-estimate metadata.
func TestCostEstimateFields(t *testing.T) {
	in := fakeInputs(1000, map[string]int{"a": 10, "b": 100})
	est := in.EstimateIIO(5, []string{"a", "b"}, 1)
	// One posting block per term, the point column's entry for the one
	// candidate the intersection is expected to hold, and that row.
	if want := 2 + 1/pointsPerBlock + 1; est.Blocks != want {
		t.Fatalf("Blocks = %v, want %v", est.Blocks, want)
	}
	wantSel := (10.0 / 1000) * (100.0 / 1000)
	if est.Selectivity != wantSel {
		t.Fatalf("Selectivity = %v, want %v", est.Selectivity, wantSel)
	}
	if est.Rows != wantSel*1000 {
		t.Fatalf("Rows = %v, want %v", est.Rows, wantSel*1000)
	}
	// A residual filter shrinks rows but never grows cost.
	withRes := in.EstimateIIO(5, []string{"a", "b"}, 0.5)
	if withRes.Rows >= est.Rows || withRes.Blocks != est.Blocks {
		t.Fatalf("residual: rows %v (was %v), blocks %v (was %v)",
			withRes.Rows, est.Rows, withRes.Blocks, est.Blocks)
	}
	// Past k candidates, TOP loads only the rows k accepts take (more under
	// a residual filter); an area operator loads every candidate.
	for _, tc := range []struct {
		k    int
		res  float64
		rows float64
	}{{5, 1, 5}, {5, 0.5, 10}, {0, 1, 100}, {0, 0.5, 100}} {
		got := in.EstimateIIO(tc.k, []string{"b"}, tc.res).Blocks
		if want := 1 + 100/pointsPerBlock + tc.rows; got != want {
			t.Errorf("EstimateIIO(%d, [b], %v).Blocks = %v, want %v", tc.k, tc.res, got, want)
		}
	}
}

// TestModeledTime pins the deterministic time model: block counts times
// the cost model's random access rate, no wall clock anywhere.
func TestModeledTime(t *testing.T) {
	if got := ModeledTime(10); got != 80*time.Millisecond {
		t.Fatalf("ModeledTime(10) = %v, want 80ms", got)
	}
	if got := actualTime(3, 100); got != 24*time.Millisecond+6*time.Millisecond {
		t.Fatalf("actualTime(3, 100) = %v, want 30ms", got)
	}
}

// planTestCatalog builds a small engine with skewed term frequencies:
// "common" in every doc, "rare" in two docs.
func planTestCatalog(t *testing.T) *Catalog {
	t.Helper()
	e, err := spatialkeyword.NewEngine(spatialkeyword.Config{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i := 0; i < 400; i++ {
		text := "common filler"
		if i < 2 {
			text += " rare"
		}
		if i%2 == 0 {
			text += " half"
		}
		if _, err := e.Add([]float64{float64(i) * 0.37, float64(i) * 0.61}, text); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return NewCatalog(e)
}

func mustPlan(t *testing.T, c *Catalog, src string) *Plan {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	p, err := c.BuildPlan(q)
	if err != nil {
		t.Fatalf("BuildPlan(%q): %v", src, err)
	}
	return p
}

// TestPlannerRoutesByFrequency checks the auto planner picks the IIO
// path for rare keywords and an engine scan for ubiquitous ones.
func TestPlannerRoutesByFrequency(t *testing.T) {
	c := planTestCatalog(t)
	rare := mustPlan(t, c, `SELECT TOP 5 NEAR (1, 1) MATCH "rare"`)
	if len(rare.Ops) != 1 || rare.Ops[0].Path != PathIIO {
		t.Fatalf("rare keyword plan chose %v, want one IIO op", rare.Ops)
	}
	common := mustPlan(t, c, `SELECT TOP 5 NEAR (1, 1) MATCH "common"`)
	if len(common.Ops) != 1 || common.Ops[0].Path == PathIIO {
		t.Fatalf("common keyword plan chose %v, want a tree path", common.Ops)
	}
	// A conjunction is as selective as its rarest term: the ubiquitous
	// keyword beside the rare one still routes to the inverted index, whose
	// cost is driven by the smallest document frequency.
	conj := mustPlan(t, c, `SELECT TOP 5 NEAR (1, 1) MATCH "common" AND "rare"`)
	if len(conj.Ops) != 1 || conj.Ops[0].Path != PathIIO {
		t.Fatalf("conjunction plan chose %+v, want one IIO op", conj.Ops)
	}
}

// TestPlanShapes checks DNF splitting, common-conjunct pushdown, and
// the single-scan fallback.
func TestPlanShapes(t *testing.T) {
	c := planTestCatalog(t)

	// OR of two conjunctions: a branch plan with per-branch operators.
	p := mustPlan(t, c, `SELECT TOP 5 NEAR (1, 1) MATCH ("rare" AND "half") OR ("rare" AND "common") USING ir2`)
	if !p.DNF || len(p.Ops) != 2 {
		t.Fatalf("expected 2-branch dnf plan, got DNF=%v ops=%d", p.DNF, len(p.Ops))
	}
	if got := p.Common; len(got) != 1 || got[0] != "rare" {
		t.Fatalf("common conjuncts = %v, want [rare]", got)
	}

	// NOT above an OR cannot push per-branch IR2; falls to single scan.
	p = mustPlan(t, c, `SELECT TOP 5 NEAR (1, 1) MATCH "common" AND NOT ("rare" OR "half") USING rtree`)
	if p.DNF || len(p.Ops) != 1 || p.Ops[0].Path != PathRTree {
		t.Fatalf("forced rtree: got DNF=%v ops=%+v", p.DNF, p.Ops)
	}
	if p.Ops[0].Residual == nil {
		t.Fatalf("single scan must carry the full tree as residual")
	}

	// Contradiction plans to an empty operator list.
	p = mustPlan(t, c, `SELECT TOP 5 NEAR (1, 1) MATCH "rare" AND NOT "rare"`)
	if len(p.Ops) != 0 {
		t.Fatalf("contradiction: expected no ops, got %+v", p.Ops)
	}

	// A wide OR past the branch cap falls back to one filter scan.
	wide := make([]string, 0, DefaultMaxBranches+1)
	for i := 0; i <= DefaultMaxBranches; i++ {
		wide = append(wide, `"w`+strings.Repeat("x", i)+`"`)
	}
	p = mustPlan(t, c, `SELECT TOP 5 NEAR (1, 1) MATCH `+strings.Join(wide, " OR "))
	if p.DNF || len(p.Ops) != 1 {
		t.Fatalf("wide OR: expected single-scan fallback, got DNF=%v ops=%d", p.DNF, len(p.Ops))
	}

	// RANKED plans the scored traversal over the positive terms.
	p = mustPlan(t, c, `SELECT RANKED 3 NEAR (1, 1) MATCH ("rare" OR "half") AND NOT "common"`)
	if len(p.Ops) != 1 || p.Ops[0].Path != PathRanked {
		t.Fatalf("ranked plan: %+v", p.Ops)
	}
	if got := p.Ops[0].Conj; len(got) != 2 || got[0] != "rare" || got[1] != "half" {
		t.Fatalf("ranked scoring terms = %v, want [rare half]", got)
	}
}

// TestPlanValidation checks the semantic rules the grammar cannot
// express.
func TestPlanValidation(t *testing.T) {
	c := planTestCatalog(t)
	cases := []struct{ src, wantSub string }{
		{`SELECT TOP 5 MATCH "a"`, "requires NEAR or WITHIN"},
		{`SELECT RANKED 5 MATCH "a" WITHIN rect(0, 0, 1, 1)`, "requires NEAR"},
		{`SELECT RANKED 5 NEAR (1, 1)`, "requires MATCH"},
		{`SELECT RANKED 5 NEAR (1, 1) MATCH NOT "a"`, "positive keyword"},
		{`SELECT RANKED 5 NEAR (1, 1) MATCH "a" USING ir2`, "drop USING"},
		{`SELECT ALL MATCH "a"`, "requires WITHIN"},
		{`SELECT COUNT NEAR (1, 1) WITHIN rect(0, 0, 1, 1)`, "does not take NEAR"},
		{`SELECT TOP 5 NEAR (1, 1) WHERE score > 0.5`, "requires SELECT RANKED"},
		{`SELECT TOP 5 NEAR (1, 1) WHERE score >= 0`, "requires SELECT RANKED"},
		{`SELECT ALL WITHIN rect(5, 0, 1, 1)`, "inverted WITHIN rect"},
		{`SELECT TOP 5 NEAR (1, 1) USING iio`, "USING iio requires MATCH"},
		{`SELECT TOP 5 NEAR (1, 1) MATCH NOT "a" USING iio`, "USING iio requires"},
	}
	for _, tc := range cases {
		q, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.src, err)
		}
		_, err = c.BuildPlan(q)
		if err == nil {
			t.Errorf("BuildPlan(%q): expected error containing %q", tc.src, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("BuildPlan(%q) error = %q, want substring %q", tc.src, err.Error(), tc.wantSub)
		}
	}

	// The paper's no-op score filter is accepted on boolean queries.
	q, err := Parse(`SELECT TOP 5 NEAR (1, 1) MATCH "a" WHERE score > 0`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, err := c.BuildPlan(q); err != nil {
		t.Fatalf("score > 0 on TOP should be accepted: %v", err)
	}
}
