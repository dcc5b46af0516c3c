package skql

import (
	"strings"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/obs"
	"spatialkeyword/internal/shard"
)

func runExplain(t *testing.T, c *Catalog, src string) []string {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	rs, err := c.Run(q)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return rs.Explain
}

func wantLine(t *testing.T, lines []string, sub string) string {
	t.Helper()
	for _, l := range lines {
		if strings.Contains(l, sub) {
			return l
		}
	}
	t.Fatalf("no explain line contains %q in:\n%s", sub, strings.Join(lines, "\n"))
	return ""
}

// TestExplainOnly checks plain EXPLAIN: estimates render, the query
// does not execute, and no actuals appear.
func TestExplainOnly(t *testing.T) {
	c := planTestCatalog(t)
	lines := runExplain(t, c, `EXPLAIN SELECT TOP 5 NEAR (1, 1) MATCH "rare"`)
	wantLine(t, lines, `EXPLAIN SELECT TOP 5 NEAR (1, 1) MATCH "rare"`)
	wantLine(t, lines, "plan: top 5, merge=distance")
	wantLine(t, lines, "cost inputs: n=400")
	wantLine(t, lines, "path=iio")
	wantLine(t, lines, "est:    blocks=")
	wantLine(t, lines, "total: est blocks=")
	for _, l := range lines {
		if strings.Contains(l, "actual:") {
			t.Fatalf("plain EXPLAIN must not execute, got %q", l)
		}
	}
}

// countEstActual tallies per-operator estimated and actual block-read
// lines in EXPLAIN ANALYZE output.
func countEstActual(lines []string) (est, act int) {
	for _, l := range lines {
		if strings.Contains(l, "est:    blocks=") {
			est++
		}
		if strings.Contains(l, "actual: blocks=") {
			act++
		}
	}
	return est, act
}

// TestExplainAnalyzeMixedFrequency is the acceptance scenario from the
// paper's §6.B extremes in one query: a disjunction of a rare and a
// ubiquitous keyword. The common side makes the whole predicate
// unselective, so the planner folds the query into one tree scan (a
// per-branch split would pay that same scan for the common branch plus
// posting I/O on top), and EXPLAIN ANALYZE reports estimated vs actual
// block reads for the operator it ran.
func TestExplainAnalyzeMixedFrequency(t *testing.T) {
	c := planTestCatalog(t)
	src := `EXPLAIN ANALYZE SELECT TOP 5 NEAR (1, 1) MATCH "rare" OR "common"`
	lines := runExplain(t, c, src)

	wantLine(t, lines, "plan: top 5, merge=distance, single scan")
	if est, act := countEstActual(lines); est != 1 || act != 1 {
		t.Fatalf("want one est/actual pair, got est=%d actual=%d:\n%s",
			est, act, strings.Join(lines, "\n"))
	}
	wantLine(t, lines, "rand + ")
	wantLine(t, lines, "total: est blocks=")

	// EXPLAIN ANALYZE still returns the real results alongside the plan.
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rs, err := c.Run(q)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rs.Results) == 0 {
		t.Fatalf("EXPLAIN ANALYZE returned no results")
	}
	plain, err := Parse(strings.TrimPrefix(src, "EXPLAIN ANALYZE "))
	if err != nil {
		t.Fatalf("Parse plain: %v", err)
	}
	prs, err := c.Run(plain)
	if err != nil {
		t.Fatalf("Run plain: %v", err)
	}
	if len(prs.Results) != len(rs.Results) {
		t.Fatalf("ANALYZE results differ from plain run: %d vs %d", len(rs.Results), len(prs.Results))
	}
	for i := range prs.Results {
		if prs.Results[i].Object.ID != rs.Results[i].Object.ID {
			t.Fatalf("result %d: ANALYZE ID %d vs plain %d", i, rs.Results[i].Object.ID, prs.Results[i].Object.ID)
		}
	}
}

// TestExplainAnalyzeDNFBranches checks a disjunction of two rare
// conjunctions splits into per-branch inverted-index operators, each
// with its own estimated and actual block reads.
func TestExplainAnalyzeDNFBranches(t *testing.T) {
	c := planTestCatalog(t)
	lines := runExplain(t, c,
		`EXPLAIN ANALYZE SELECT TOP 5 NEAR (1, 1) MATCH ("rare" AND "half") OR ("rare" AND "common")`)
	wantLine(t, lines, "dnf union of 2 branches")
	wantLine(t, lines, "common conjuncts: [rare]")
	wantLine(t, lines, "path=iio")
	if est, act := countEstActual(lines); est != 2 || act != 2 {
		t.Fatalf("want est/actual pairs for both operators, got est=%d actual=%d:\n%s",
			est, act, strings.Join(lines, "\n"))
	}
}

// TestExplainAnalyzeTraceFold checks the engine trace folds under the
// operator that produced it — expansions, and one emit per result of the
// statement — and that the traced statement is one query to the backend's
// metrics sink, like any other stream.
func TestExplainAnalyzeTraceFold(t *testing.T) {
	// Few enough rows that the whole trace fits under maxTraceLines.
	e, err := shard.New(spatialkeyword.Config{}, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range []string{"cafe wifi", "bar pool", "cafe patio", "gym", "cafe vinyl", "pool hall"} {
		if _, err := e.Add([]float64{float64(i), float64(i)}, text); err != nil {
			t.Fatal(err)
		}
	}
	var recs []obs.QueryMetrics // the aggregate records
	e.SetMetricsSink(obs.SinkFunc(func(m obs.QueryMetrics) {
		if m.Shard < 0 {
			recs = append(recs, m)
		}
	}))
	q, err := Parse(`EXPLAIN ANALYZE SELECT TOP 2 NEAR (0, 0) MATCH cafe USING ir2`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewCatalog(e).Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Results) != 2 || rs.Results[0].Object.ID != 0 || rs.Results[1].Object.ID != 2 {
		t.Fatalf("results = %+v, want objects 0 and 2", rs.Results)
	}
	var expands, emits int
	for _, l := range rs.Explain {
		if !strings.HasPrefix(l, "    | ") {
			continue
		}
		if strings.Contains(l, "expand node") {
			expands++
		}
		if strings.Contains(l, "emit object") {
			emits++
		}
	}
	if expands == 0 || emits < len(rs.Results) {
		t.Fatalf("folded trace has %d expand and %d emit lines for %d results:\n%s",
			expands, emits, len(rs.Results), strings.Join(rs.Explain, "\n"))
	}
	if len(recs) != 1 || recs[0].Op != "stream" || recs[0].Results != len(rs.Results) || recs[0].NodesLoaded != expands {
		t.Errorf("sink records = %+v, want one stream record with %d results and %d nodes", recs, len(rs.Results), expands)
	}
}

// TestEngineAreaOperatorWork: an ALL/COUNT operator on the engine's range
// query reports the query's work record, the same one the backend's sink
// gets as its "area" record.
func TestEngineAreaOperatorWork(t *testing.T) {
	e, err := shard.New(spatialkeyword.Config{}, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range []string{"cafe wifi", "bar pool", "cafe patio", "gym", "cafe vinyl", "pool hall"} {
		if _, err := e.Add([]float64{float64(i), float64(i)}, text); err != nil {
			t.Fatal(err)
		}
	}
	var recs []obs.QueryMetrics // the aggregate records
	e.SetMetricsSink(obs.SinkFunc(func(m obs.QueryMetrics) {
		if m.Shard < 0 {
			recs = append(recs, m)
		}
	}))
	q, err := Parse(`SELECT COUNT WITHIN rect(0, 0, 3, 3) MATCH cafe USING ir2`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewCatalog(e).Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Count != 2 || len(rs.Actuals) != 1 {
		t.Fatalf("count = %d with %d operators, want 2 from one", rs.Count, len(rs.Actuals))
	}
	w := rs.Actuals[0].Work
	if w.NodesLoaded == 0 || w.ObjectsLoaded < rs.Count {
		t.Errorf("operator work = %+v, want the traversal's nodes and objects", w)
	}
	if len(recs) != 1 || recs[0].Op != "area" || recs[0].NodesLoaded != w.NodesLoaded || recs[0].ObjectsLoaded != w.ObjectsLoaded {
		t.Errorf("sink records = %+v, want one area record with the operator's work %+v", recs, w)
	}
}
