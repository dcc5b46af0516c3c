// POST /query: the SKQL declarative front-end over HTTP. The body is
// either {"query": "SELECT ..."} carrying SKQL text or the structured
// JSON query form itself (a "select" key marks it). Plans are built by
// internal/skql's cost-based router over the same backend the rest of
// the API serves, so replicas answer queries (with read-your-writes
// honored in ryw mode) and EXPLAIN ANALYZE reports real block reads.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/obs"
	"spatialkeyword/internal/skql"
)

// maxQueryBody bounds every request body; statements, objects and fences
// are all small.
const maxQueryBody = 1 << 20

// skqlServer is the per-server SKQL state: the catalog over the
// backend plus the sk_skql_* metrics family.
type skqlServer struct {
	cat   *skql.Catalog
	parse *obs.Histogram // sk_skql_parse_seconds
	plan  *obs.Histogram // sk_skql_plan_seconds
	exec  *obs.Histogram // sk_skql_exec_seconds
	plans map[skql.Path]*obs.Counter
	errs  *obs.Counter

	// Sidecar index maintenance, exported from the catalog's
	// IndexStats: idxSeen is the snapshot already counted.
	idxMu        sync.Mutex
	idxSeen      skql.IndexStats
	idxRefresh   *obs.Histogram // sk_skql_index_refresh_seconds
	idxRows      *obs.Counter   // sk_skql_index_rows_indexed_total
	idxFullBuild *obs.Counter   // sk_skql_index_full_builds_total
	idxFolds     *obs.Counter   // sk_skql_index_folds_total
}

// attachSKQL mounts the SKQL catalog over the backend.
func (s *server) attachSKQL() {
	q := &skqlServer{
		cat: skql.NewCatalog(s.eng),
		parse: s.reg.Histogram("sk_skql_parse_seconds",
			"SKQL statement parse latency.", obs.LatencyBuckets()),
		plan: s.reg.Histogram("sk_skql_plan_seconds",
			"SKQL logical-to-physical planning latency.", obs.LatencyBuckets()),
		exec: s.reg.Histogram("sk_skql_exec_seconds",
			"SKQL plan execution latency.", obs.LatencyBuckets()),
		plans: make(map[skql.Path]*obs.Counter),
		errs: s.reg.Counter("sk_skql_errors_total",
			"SKQL statements rejected at parse, plan, or execution time."),
		idxRefresh: s.reg.Histogram("sk_skql_index_refresh_seconds",
			"Time an IIO statement spent bringing the sidecar inverted index current (catch-up on the rows not yet indexed, all of them on first use).",
			obs.LatencyBuckets()),
		idxRows: s.reg.Counter("sk_skql_index_rows_indexed_total",
			"Rows added to the sidecar inverted index."),
		idxFullBuild: s.reg.Counter("sk_skql_index_full_builds_total",
			"Sidecar inverted index fills started from empty; stays at 1 under write traffic."),
		idxFolds: s.reg.Counter("sk_skql_index_folds_total",
			"Folds of the sidecar index's in-memory tail into its on-device lists."),
	}
	for _, p := range []skql.Path{skql.PathIR2, skql.PathIIO, skql.PathRTree, skql.PathRanked} {
		q.plans[p] = s.reg.Counter("sk_skql_plans_total",
			"Physical operators planned, by access path.", obs.L("path", p.String()))
	}
	s.skql = q
}

// refreshIndex brings the catalog's sidecar index current and exports
// what that took: the catalog's counters advance the sk_skql_index_*
// totals, and a call that found work observes its duration. Two
// statements racing one refresh may swap whose wait is observed; the
// counts stay exact.
func (q *skqlServer) refreshIndex() error {
	start := time.Now()
	err := q.cat.EnsureIndex()
	elapsed := time.Since(start)
	st := q.cat.IndexStats()
	q.idxMu.Lock()
	defer q.idxMu.Unlock()
	seen := q.idxSeen
	if st.Refreshes <= seen.Refreshes {
		return err // nothing new, or a later snapshot was already counted
	}
	q.idxSeen = st
	q.idxRefresh.Observe(elapsed.Seconds())
	q.idxRows.Add(st.RowsIndexed - seen.RowsIndexed)
	q.idxFullBuild.Add(st.FullBuilds - seen.FullBuilds)
	q.idxFolds.Add(st.Folds - seen.Folds)
	return err
}

// queryResponse is the POST /query payload.
type queryResponse struct {
	// Query is the canonical form of the parsed statement.
	Query string `json:"query"`
	// Results holds TOP and ALL answers, Ranked the RANKED answers.
	Results []spatialkeyword.Result       `json:"results,omitempty"`
	Ranked  []spatialkeyword.RankedResult `json:"ranked,omitempty"`
	// Count is the number of answers (the whole answer for COUNT).
	Count int `json:"count"`
	// Explain carries the EXPLAIN / EXPLAIN ANALYZE report lines.
	Explain []string `json:"explain,omitempty"`
}

// parseQueryBody accepts the two statement encodings.
func parseQueryBody(body []byte) (*skql.Query, error) {
	var wrapper struct {
		Query string `json:"query"`
	}
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("empty body")
	}
	if err := json.Unmarshal(trimmed, &wrapper); err == nil && wrapper.Query != "" {
		return skql.Parse(wrapper.Query)
	}
	return skql.ParseJSON(trimmed)
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
	if err != nil {
		httpError(w, bodyErrorStatus(err), err)
		return
	}
	sq := s.skql

	start := time.Now()
	q, err := parseQueryBody(body)
	sq.parse.Observe(time.Since(start).Seconds())
	if err != nil {
		sq.errs.Inc()
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !s.awaitReadPosition(w, r) {
		return
	}

	start = time.Now()
	plan, err := sq.cat.BuildPlan(q)
	sq.plan.Observe(time.Since(start).Seconds())
	if err != nil {
		sq.errs.Inc()
		status := statusFor(err)
		if status == http.StatusInternalServerError {
			status = http.StatusBadRequest // a statement that does not plan is the client's
		}
		httpError(w, status, err)
		return
	}
	for i := range plan.Ops {
		if ctr := sq.plans[plan.Ops[i].Path]; ctr != nil {
			ctr.Inc()
		}
	}

	// The refresh is part of what the statement costs its caller, so it
	// stays inside the execution timing it has always been inside.
	start = time.Now()
	var rs *skql.ResultSet
	if plan.ReadsIndex() {
		err = sq.refreshIndex()
	}
	if err == nil {
		rs, err = sq.cat.RunPlan(plan)
	}
	sq.exec.Observe(time.Since(start).Seconds())
	if err != nil {
		sq.errs.Inc()
		httpError(w, statusFor(err), err)
		return
	}
	writeAppended(w, &queryResponse{
		Query:   q.String(),
		Results: rs.Results,
		Ranked:  rs.Ranked,
		Count:   rs.Count,
		Explain: rs.Explain,
	})
}
