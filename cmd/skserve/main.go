// Command skserve exposes a spatial keyword search engine over HTTP — the
// paper's motivating "online yellow pages" as a running service. It serves
// a JSON API backed by a pool of IR²-Tree engines — one by default, -shards
// of them partitioned by location — answering queries with a parallel
// fan-out/merge, optionally durable on disk. SIGINT/SIGTERM drain in-flight
// requests and checkpoint a durable engine before exiting.
//
// Usage:
//
//	skserve [flags]
//
//	-addr       listen address (default :8080)
//	-dir        backing directory; empty = in-memory, existing manifest = reopen
//	            (a sharded engine's, or a single engine's directory, which is
//	            served in place as one shard)
//	-sig        leaf signature bytes (default 64) of a new engine; an
//	            existing directory keeps its manifest's length
//	-shards     number of spatial shards (default 1) of a new engine; an
//	            existing directory keeps the count it was created with
//	-wal        write-ahead log: every acknowledged mutation is durable
//	            before the HTTP response (requires -dir; reopening an
//	            existing directory keeps whatever the manifest recorded)
//	-wal-fsync  WAL group-commit window — concurrent mutations share one
//	            fsync (default 2ms; 0 syncs every append individually)
//	-pprof      also mount net/http/pprof under /debug/pprof/
//	-slowquery  log queries slower than this to stderr as JSON lines
//	            (default 50ms; 0 disables)
//	-replica-of leader base URL: serve as a read-only replica of that
//	            skserve instance, bootstrapping and tailing its WAL into
//	            -dir (requires -dir; mutations answer 403)
//	-read-mode  replica read consistency: "eventual" (default) serves
//	            whatever has been applied; "ryw" honors the
//	            X-SK-Repl-Position request header (as stamped on leader
//	            write responses) by waiting until the replica has caught
//	            up to that position — read-your-writes
//	-ryw-timeout how long a ryw read waits before answering 504 (default 2s)
//
// A WAL-enabled leader additionally serves the replication protocol under
// /repl (see internal/repl): replicas bootstrap from its snapshots and
// long-poll its log. Leader write responses carry X-SK-Repl-Position.
//
// API:
//
//	POST   /objects          {"point":[lat,lon],"text":"..."} → {"id":N}
//	GET    /objects/{id}     → the stored object
//	DELETE /objects/{id}     → removes it from the index
//	GET    /search?lat=..&lon=..&k=5&q=internet,pool
//	                         → distance-first top-k (AND semantics)
//	GET    /ranked?lat=..&lon=..&k=5&q=internet,pool
//	                         → general ranked top-k (soft semantics)
//	POST   /query            {"query":"SELECT TOP 5 NEAR (25.77, -80.19) MATCH cafe AND wifi"}
//	                         or the structured JSON query form → cost-routed
//	                         SKQL execution; EXPLAIN / EXPLAIN ANALYZE return
//	                         the plan (with estimated vs actual block reads)
//	GET    /stats            → engine, per-shard, and request statistics
//	GET    /metrics          → Prometheus text exposition (query latency
//	                           histograms, traversal counters, per-shard I/O)
//	GET    /debug/vars       → the same metrics as expvar-style JSON
//	GET    /healthz          → liveness probe: degraded status, per-shard
//	                           health and durability, and the WAL's state
//	POST   /save             → checkpoint a durable engine
//	POST   /fences           register a standing query (geofence); every
//	                           applied mutation is evaluated against it
//	GET    /fences           list fences; GET/DELETE /fences/{id} manage one
//	GET    /fences/{id}/events
//	                         → live enter/leave/update events: Server-Sent
//	                           Events for Accept: text/event-stream clients
//	                           (resumable via Last-Event-ID), long-poll JSON
//	                           otherwise (?since=SEQ&wait=DUR&max=N)
//
// Example session:
//
//	skserve -dir /tmp/yp -shards 4 &
//	curl -s -XPOST localhost:8080/objects \
//	  -d '{"point":[25.77,-80.19],"text":"cuban cafe espresso wifi"}'
//	curl -s 'localhost:8080/search?lat=25.78&lon=-80.18&k=3&q=espresso'
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/fence"
	"spatialkeyword/internal/obs"
	"spatialkeyword/internal/repl"
	"spatialkeyword/internal/shard"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		dir       = flag.String("dir", "", "backing directory (empty = in-memory)")
		sig       = flag.Int("sig", 64, "leaf signature bytes")
		shards    = flag.Int("shards", 1, "number of spatial shards")
		walEnable = flag.Bool("wal", false, "write-ahead log: acknowledged mutations are durable (requires -dir)")
		walFsync  = flag.Duration("wal-fsync", 2*time.Millisecond,
			"WAL group-commit window; concurrent mutations share one fsync (0 = sync every append)")
		enablePprof = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		slowQuery   = flag.Duration("slowquery", 50*time.Millisecond,
			"log queries slower than this to stderr as JSON lines (0 disables)")
		replicaOf = flag.String("replica-of", "",
			"leader base URL: serve as a read-only replica of that instance (requires -dir)")
		readMode = flag.String("read-mode", "eventual",
			`replica read consistency: "eventual" or "ryw" (honor X-SK-Repl-Position)`)
		rywTimeout = flag.Duration("ryw-timeout", 2*time.Second,
			"how long a ryw read waits for the requested position before answering 504")
	)
	flag.Parse()

	if *walEnable && *dir == "" {
		fmt.Fprintln(os.Stderr, "skserve: -wal requires -dir (an in-memory engine has nothing to make durable)")
		os.Exit(1)
	}
	if *replicaOf != "" && *dir == "" {
		fmt.Fprintln(os.Stderr, "skserve: -replica-of requires -dir (the replica is a durable copy)")
		os.Exit(1)
	}
	if *readMode != "eventual" && *readMode != "ryw" {
		fmt.Fprintf(os.Stderr, "skserve: unknown -read-mode %q (want eventual or ryw)\n", *readMode)
		os.Exit(1)
	}
	reg := obs.NewRegistry()
	var (
		eng    backend
		leader *repl.Leader
		err    error
	)
	if *replicaOf != "" {
		eng, err = repl.OpenFollower(*dir, *replicaOf, repl.Options{Registry: reg})
	} else {
		cfg := spatialkeyword.Config{SignatureBytes: *sig, WAL: *walEnable, WALSyncWindow: *walFsync}
		var s *shard.ShardedEngine
		if s, err = openOrCreate(*dir, cfg, *shards); err == nil {
			eng, leader = s, attachLeader(s, *dir)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "skserve:", err)
		os.Exit(1)
	}
	srv := newServer(eng, *dir != "" && *replicaOf == "", serverOptions{
		pprof:      *enablePprof,
		slowQuery:  *slowQuery,
		slowLogTo:  os.Stderr,
		registry:   reg,
		leader:     leader,
		readMode:   *readMode,
		rywTimeout: *rywTimeout,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.routes(), ReadHeaderTimeout: readHeaderTimeout}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("skserve listening on %s (role=%s, durable=%v, shards=%d, wal=%v)",
		*addr, srv.role(), *dir != "", srv.shards(), srv.walOn)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		log.Printf("skserve: signal received, draining requests")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			log.Printf("skserve: shutdown: %v", err)
		}
		if err := srv.checkpoint(); err != nil {
			log.Fatalf("skserve: checkpoint: %v", err)
		}
		log.Printf("skserve: bye")
	}
}

// backend is the contract the HTTP layer serves. Both served backends — a
// *shard.ShardedEngine of one or more shards, and a *repl.Follower holding
// one — implement it natively and synchronize themselves.
type backend interface {
	spatialkeyword.Reader
	Add(point []float64, text string) (uint64, error)
	Delete(id uint64) error
	Save() error
	Close() error
	SetMutationObserver(func(spatialkeyword.MutationEvent))
	SetMetricsSink(obs.Sink)
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers.
const readHeaderTimeout = 10 * time.Second

// openOrCreate reopens an existing durable engine (sharded, or a single
// engine's directory adopted in place as one shard), creates a new durable
// one, or builds an in-memory engine — of shards shards, with a hash
// partitioner: the service accepts arbitrary points, so there is no dataset
// MBR to grid over.
func openOrCreate(dir string, cfg spatialkeyword.Config, shards int) (*shard.ShardedEngine, error) {
	if shards < 1 {
		return nil, fmt.Errorf("need at least 1 shard, got %d", shards)
	}
	opts := shard.Options{Shards: shards}
	switch {
	case dir == "":
		return shard.New(cfg, opts)
	case shard.IsShardedDir(dir):
		return shard.Open(dir)
	default:
		return shard.NewDurable(cfg, dir, opts)
	}
}

// attachLeader mounts a replication leader over a WAL-enabled durable
// engine (nil otherwise). Called before the server accepts traffic, so the
// ship-buffer hooks are installed ahead of the first mutation.
func attachLeader(s *shard.ShardedEngine, dir string) *repl.Leader {
	if dir == "" || !s.WALInfo().Enabled {
		return nil
	}
	return repl.NewLeader(s)
}

// serverOptions configures the observability surface and the replication
// role.
type serverOptions struct {
	pprof      bool          // mount net/http/pprof under /debug/pprof/
	slowQuery  time.Duration // slow-query log threshold; 0 disables
	slowLogTo  io.Writer     // slow-query destination (tests override)
	registry   *obs.Registry // pre-built metrics registry (nil = fresh one)
	leader     *repl.Leader  // non-nil: serve the /repl protocol
	readMode   string        // replica read consistency: "eventual" or "ryw"
	rywTimeout time.Duration // ryw position-wait bound; 0 = 2s
}

// server wraps a backend engine with the JSON API. Request counters and
// per-query metrics live in one obs.Registry, exposed by /metrics
// (Prometheus text) and /debug/vars (JSON); /stats keeps serving the
// per-endpoint totals it always had, now read from the same counters.
type server struct {
	eng      backend
	durable  bool
	opts     serverOptions
	reg      *obs.Registry
	reqs     map[string]*obs.Counter
	slow     *obs.SlowLog
	primary  *shard.ShardedEngine // the backend when it is the writable engine; nil on a replica
	follower *repl.Follower       // the backend when it is a read replica
	leader   *repl.Leader         // non-nil when serving the replication protocol
	walOn    bool                 // the backend has a live WAL
	fences   *fence.Registry
	skql     *skqlServer

	// Node-cache export: the counters live in the engine, so every scrape
	// snapshots them into these gauges.
	ncacheHits, ncacheMisses           *obs.Gauge
	ncacheEvictions, ncacheInvalidates *obs.Gauge
}

// endpoints names every route for the request counter family.
var endpoints = []string{"add", "get", "delete", "search", "ranked", "query", "stats", "metrics", "vars", "healthz", "save",
	"fence-add", "fence-list", "fence-get", "fence-delete", "fence-events"}

func newServer(eng backend, durable bool, opts serverOptions) *server {
	reg := opts.registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if opts.rywTimeout <= 0 {
		opts.rywTimeout = 2 * time.Second
	}
	s := &server{
		eng:     eng,
		durable: durable,
		opts:    opts,
		reg:     reg,
		reqs:    make(map[string]*obs.Counter, len(endpoints)),
		leader:  opts.leader,
	}
	s.primary, _ = eng.(*shard.ShardedEngine)
	s.follower, _ = eng.(*repl.Follower)
	for _, ep := range endpoints {
		s.reqs[ep] = s.reg.Counter("sk_http_requests_total",
			"HTTP requests served, by endpoint.", obs.L("endpoint", ep))
	}
	sinks := []obs.Sink{obs.NewQueryRecorder(s.reg)}
	if opts.slowQuery > 0 {
		w := opts.slowLogTo
		if w == nil {
			w = os.Stderr
		}
		s.slow = obs.NewSlowLog(w, opts.slowQuery)
		sinks = append(sinks, s.slow)
	}
	eng.SetMetricsSink(obs.MultiSink(sinks...))
	if s.primary != nil {
		s.primary.SetHealthMetrics(
			s.reg.Counter("sk_shard_errors_total",
				"Storage faults that degraded a shard."),
			s.reg.Gauge("sk_shards_unhealthy",
				"Shards currently marked unhealthy and out of rotation."),
		)
		s.ncacheHits = s.reg.Gauge("sk_nodecache_hits",
			"Decoded-node cache hits: warm node expansions served without re-decoding.")
		s.ncacheMisses = s.reg.Gauge("sk_nodecache_misses",
			"Decoded-node cache misses: nodes decoded from their block image.")
		s.ncacheEvictions = s.reg.Gauge("sk_nodecache_evictions",
			"Decoded nodes evicted by the cache's CLOCK policy.")
		s.ncacheInvalidates = s.reg.Gauge("sk_nodecache_invalidations",
			"Decoded nodes dropped because the mutation path rewrote or freed them.")
		if wi := s.primary.WALInfo(); wi.Enabled {
			s.walOn = true
			appends := s.reg.Counter("sk_wal_appends_total",
				"Mutations appended to the write-ahead log.")
			fsyncs := s.reg.Histogram("sk_wal_fsync_seconds",
				"WAL group-commit sync latency.", obs.LatencyBuckets())
			replayed := s.reg.Counter("sk_wal_replayed_records_total",
				"WAL records replayed on top of the snapshot at open.")
			torn := s.reg.Counter("sk_wal_torn_tail_total",
				"Torn WAL tails truncated during recovery.")
			replayed.Add(wi.ReplayedRecords)
			torn.Add(wi.TornTails)
			s.primary.SetWALObserver(
				func() { appends.Inc() },
				func(d time.Duration) { fsyncs.Observe(d.Seconds()) },
			)
		}
	}
	s.attachFences()
	s.attachSKQL()
	return s
}

// requestSnapshot reads the per-endpoint totals for /stats.
func (s *server) requestSnapshot() map[string]uint64 {
	out := make(map[string]uint64, len(s.reqs))
	for ep, c := range s.reqs {
		out[ep] = c.Value()
	}
	return out
}

// role names the server's replication role for logs and /healthz.
func (s *server) role() string {
	if s.follower != nil {
		return "replica"
	}
	return "primary"
}

// shards reports the backend's shard count: a replica tails one stream per
// shard of its leader.
func (s *server) shards() int {
	if s.follower != nil {
		return len(s.follower.Status().Streams)
	}
	return s.primary.NumShards()
}

// checkpoint persists a durable backend and releases its files — the
// graceful-shutdown tail after the HTTP server has drained.
func (s *server) checkpoint() error {
	if s.durable {
		if err := s.eng.Save(); err != nil {
			s.eng.Close() //nolint:errcheck // best-effort release; the save error is the headline
			return err
		}
	}
	return s.eng.Close()
}

// routes builds the HTTP mux. Every handler bumps its endpoint counter.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	counted := func(endpoint string, h http.HandlerFunc) http.HandlerFunc {
		c := s.reqs[endpoint]
		return func(w http.ResponseWriter, r *http.Request) {
			c.Inc()
			h(w, r)
		}
	}
	mux.HandleFunc("POST /objects", counted("add", s.handleAdd))
	mux.HandleFunc("GET /objects/{id}", counted("get", s.handleGet))
	mux.HandleFunc("DELETE /objects/{id}", counted("delete", s.handleDelete))
	mux.HandleFunc("GET /search", counted("search", s.handleSearch))
	mux.HandleFunc("GET /ranked", counted("ranked", s.handleRanked))
	mux.HandleFunc("POST /query", counted("query", s.handleQuery))
	mux.HandleFunc("GET /stats", counted("stats", s.handleStats))
	mux.HandleFunc("GET /metrics", counted("metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/vars", counted("vars", s.handleVars))
	mux.HandleFunc("GET /healthz", counted("healthz", s.handleHealthz))
	mux.HandleFunc("POST /save", counted("save", s.handleSave))
	mux.HandleFunc("POST /fences", counted("fence-add", s.handleFenceAdd))
	mux.HandleFunc("GET /fences", counted("fence-list", s.handleFenceList))
	mux.HandleFunc("GET /fences/{id}", counted("fence-get", s.handleFenceGet))
	mux.HandleFunc("DELETE /fences/{id}", counted("fence-delete", s.handleFenceDelete))
	mux.HandleFunc("GET /fences/{id}/events", counted("fence-events", s.handleFenceEvents))
	if s.leader != nil {
		mux.Handle("/repl/", s.leader.Handler())
	}
	if s.opts.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.refreshNodeCache()
	s.reg.WritePrometheus(w) //nolint:errcheck // best effort to a client
}

// handleVars serves the registry as expvar-style JSON.
func (s *server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.refreshNodeCache()
	s.reg.WriteJSON(w) //nolint:errcheck // best effort to a client
}

// refreshNodeCache snapshots the backend's node-cache counters into the
// exported gauges. No-op on a replica.
func (s *server) refreshNodeCache() {
	if s.primary == nil {
		return
	}
	st := s.primary.NodeCacheStats()
	s.ncacheHits.Set(int64(st.Hits))
	s.ncacheMisses.Set(int64(st.Misses))
	s.ncacheEvictions.Set(int64(st.Evictions))
	s.ncacheInvalidates.Set(int64(st.Invalidations))
}

// addRequest is the POST /objects payload.
type addRequest struct {
	Point []float64 `json:"point"`
	Text  string    `json:"text"`
}

func (s *server) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req addRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// The engine indexes an add before acknowledging it, so the next query
	// finds nothing pending and stays read-only.
	id, err := s.eng.Add(req.Point, req.Text)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	s.stampPosition(w)
	writeJSON(w, http.StatusCreated, map[string]uint64{"id": id})
}

// stampPosition adds the leader's replication position to a write response:
// a client that read this token can demand read-your-writes from a replica
// by echoing it as the X-SK-Repl-Position request header.
func (s *server) stampPosition(w http.ResponseWriter) {
	if s.leader != nil {
		w.Header().Set(repl.HeaderPosition, s.leader.PositionToken())
	}
}

// awaitReadPosition implements the replica's "ryw" read mode: when the
// request carries a position token, the read blocks until the replica has
// applied at least that much of the leader's log. Reports whether the
// caller may proceed (on timeout it has already answered 504).
func (s *server) awaitReadPosition(w http.ResponseWriter, r *http.Request) bool {
	if s.follower == nil || s.opts.readMode != "ryw" {
		return true
	}
	tok := r.Header.Get(repl.HeaderPosition)
	if tok == "" {
		return true
	}
	if err := s.follower.WaitFor(tok, s.opts.rywTimeout); err != nil {
		httpError(w, http.StatusGatewayTimeout, err)
		return false
	}
	return true
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad id: %w", err))
		return
	}
	if !s.awaitReadPosition(w, r) {
		return
	}
	obj, err := s.eng.Get(id)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, obj)
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad id: %w", err))
		return
	}
	if err := s.eng.Delete(id); err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	s.stampPosition(w)
	w.WriteHeader(http.StatusNoContent)
}

// parseQuery extracts the shared search parameters.
func parseQuery(r *http.Request) (point []float64, k int, keywords []string, err error) {
	q := r.URL.Query()
	lat, err := strconv.ParseFloat(q.Get("lat"), 64)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("bad lat: %w", err)
	}
	lon, err := strconv.ParseFloat(q.Get("lon"), 64)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("bad lon: %w", err)
	}
	k = 10
	if kv := q.Get("k"); kv != "" {
		k, err = strconv.Atoi(kv)
		if err != nil || k < 1 || k > 1000 {
			return nil, 0, nil, fmt.Errorf("bad k %q", kv)
		}
	}
	for _, w := range strings.Split(q.Get("q"), ",") {
		if w = strings.TrimSpace(w); w != "" {
			keywords = append(keywords, w)
		}
	}
	return []float64{lat, lon}, k, keywords, nil
}

// searchResponse is the GET /search payload.
type searchResponse struct {
	Results []spatialkeyword.Result    `json:"results"`
	Stats   *spatialkeyword.QueryStats `json:"stats,omitempty"`
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	point, k, keywords, err := parseQuery(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !s.awaitReadPosition(w, r) {
		return
	}
	results, stats, err := s.eng.TopKWithStats(k, point, keywords...)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	if results == nil {
		results = []spatialkeyword.Result{}
	}
	writeJSON(w, http.StatusOK, searchResponse{Results: results, Stats: &stats})
}

func (s *server) handleRanked(w http.ResponseWriter, r *http.Request) {
	point, k, keywords, err := parseQuery(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !s.awaitReadPosition(w, r) {
		return
	}
	results, err := s.eng.TopKRanked(k, point, keywords...)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	if results == nil {
		results = []spatialkeyword.RankedResult{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

// statsResponse is the GET /stats payload: engine-wide statistics, the
// per-shard breakdown (a primary's; a replica reports none), and per-endpoint
// request counters.
type statsResponse struct {
	Engine   spatialkeyword.Stats   `json:"engine"`
	Shards   []spatialkeyword.Stats `json:"shards,omitempty"`
	Requests map[string]uint64      `json:"requests"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{Engine: s.eng.Stats(), Requests: s.requestSnapshot()}
	if s.primary != nil {
		resp.Shards = s.primary.ShardStats()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"status":  "ok",
		"durable": s.durable,
		"shards":  s.shards(),
		"objects": s.eng.Stats().Objects,
		"role":    s.role(),
	}
	if s.follower != nil {
		st := s.follower.Status()
		resp["replication"] = st
		if !st.Connected {
			resp["status"] = "degraded"
		}
	} else if s.leader != nil {
		resp["replication"] = map[string]any{"position": s.leader.PositionToken()}
	}
	if s.primary != nil {
		if s.durable {
			resp["durability"] = s.primary.ShardDurability()
		}
		if s.primary.Degraded() {
			resp["status"] = "degraded"
		}
		resp["shard_health"] = s.primary.Health()
	}
	if s.walOn {
		wi := s.primary.WALInfo()
		walState := map[string]any{
			"enabled":          true,
			"replayed_records": wi.ReplayedRecords,
			"torn_tails":       wi.TornTails,
			"appends":          wi.Appends,
			"fsyncs":           wi.Fsyncs,
		}
		if wi.Broken != nil {
			walState["broken"] = wi.Broken.Error()
			resp["status"] = "degraded"
		}
		resp["wal"] = walState
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleSave(w http.ResponseWriter, r *http.Request) {
	if s.follower != nil {
		// Replica checkpoints are leader-driven (the follower rotates when
		// the leader's stream does).
		httpError(w, http.StatusForbidden, repl.ErrReadOnlyReplica)
		return
	}
	if !s.durable {
		httpError(w, http.StatusConflict, spatialkeyword.ErrNotDurable)
		return
	}
	if err := s.eng.Save(); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// statusFor maps a backend error to its HTTP status: the caller's mistakes
// are 4xx, a replica between snapshots is 503 (httpError adds Retry-After),
// and anything else is the server's fault.
func statusFor(err error) int {
	switch {
	case errors.Is(err, spatialkeyword.ErrBadPoint):
		return http.StatusBadRequest
	case errors.Is(err, spatialkeyword.ErrUnknownID):
		return http.StatusNotFound
	case errors.Is(err, spatialkeyword.ErrDeleted):
		return http.StatusGone
	case errors.Is(err, repl.ErrReadOnlyReplica):
		return http.StatusForbidden
	case errors.Is(err, repl.ErrResyncing):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// decodeBody decodes a JSON request body of at most maxQueryBody bytes into
// v, answering 413 or 400 itself when it cannot.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(v)
	if err == nil {
		return true
	}
	httpError(w, bodyErrorStatus(err), fmt.Errorf("bad json: %w", err))
	return false
}

// bodyErrorStatus is 413 for a body over the limit and 400 otherwise.
func bodyErrorStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// jsonBufs holds the buffers responses are encoded into before the status
// line is written.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v first and only then commits to the status: a value
// json refuses (a distance that overflowed to +Inf) is a 500 with an error
// body, not the intended status with an empty one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		json.NewEncoder(buf).Encode(map[string]string{"error": "encode response: " + err.Error()}) //nolint:errcheck // strings always encode
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes()) //nolint:errcheck // best effort to a client
}

func httpError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
