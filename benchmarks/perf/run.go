package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/skql"
)

// backend is the in-process engine surface the harness builds snapshots
// with and replays ops against; *spatialkeyword.Engine and
// *shard.ShardedEngine both satisfy it.
type backend interface {
	skql.Target
	Add(point []float64, text string) (uint64, error)
	Delete(id uint64) error
	Flush() error
	Save() error
	Close() error
}

// tickEvery is how many inserts of a set-up, and how many requests of a
// pass, go by between two bursts of the reference loop.
const (
	tickEvery        = 100
	requestsPerBurst = 10
)

func engineConfig(w workload) spatialkeyword.Config {
	return spatialkeyword.Config{SignatureBytes: w.sig, WAL: w.wal}
}

func createBackend(w workload, dir string) (backend, error) {
	if w.shards > 1 {
		return shard.NewDurable(engineConfig(w), dir, shard.Options{Shards: w.shards})
	}
	return spatialkeyword.NewDurableEngine(engineConfig(w), dir)
}

func openBackend(w workload, dir string) (backend, error) {
	if w.shards > 1 {
		return shard.Open(dir)
	}
	return spatialkeyword.OpenEngine(dir)
}

// buildSnapshot loads the corpus into a fresh durable engine through the
// public API and commits it, calling tick every tickEvery objects. The
// engine is returned open.
func buildSnapshot(w workload, c *corpus, dir string, tick func() error) (backend, error) {
	b, err := createBackend(w, dir)
	if err != nil {
		return nil, err
	}
	for i := range c.objects {
		if i%tickEvery == 0 {
			if err := tick(); err != nil {
				b.Close() //nolint:errcheck // already failing
				return nil, err
			}
		}
		o := &c.objects[i]
		if _, err := b.Add(o.point[:], o.text); err != nil {
			b.Close() //nolint:errcheck // already failing
			return nil, fmt.Errorf("add object %d: %w", i, err)
		}
	}
	if err := b.Save(); err != nil {
		b.Close() //nolint:errcheck // already failing
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	return b, nil
}

// rankedIDs answers a ranked op on an in-process engine: the oracle for
// /ranked and SKQL RANKED, whose scores the driver's model does not carry.
func rankedIDs(b backend, cat *skql.Catalog, o *op) ([]uint64, error) {
	var rs []spatialkeyword.RankedResult
	if o.kind == opQuery {
		q, err := skql.Parse(o.skql)
		if err != nil {
			return nil, err
		}
		res, err := cat.Run(q)
		if err != nil {
			return nil, err
		}
		rs = res.Ranked
	} else {
		var err error
		if rs, err = b.TopKRanked(o.k, o.point[:], o.words...); err != nil {
			return nil, err
		}
	}
	ids := make([]uint64, len(rs))
	for i, r := range rs {
		ids[i] = r.Object.ID
	}
	return ids, nil
}

// options are the effective settings of one run, printed so that two runs
// can be compared by inspection.
type options struct {
	root     string // checkout root: .bench_build lives here
	skserve  string // path of the built skserve binary
	seed     int64
	seconds  int
	passes   int     // 0 = derive from seconds
	opsScale float64 // 1 = the frozen op counts
	setups   int     // set-ups timed per run; setup_s is their median
	traced   bool
}

// runState is what one workload run accumulates.
type runState struct {
	w    workload
	opt  options
	c    *corpus
	ops  []op
	srv  *server
	mdl  *model
	work string // per-run scratch directory under .bench_build

	rankedWant map[int][]uint64

	attempted, failed int
	firstFailure      string
	// Times below are at the reference speed (see calib.go), except rawLat.
	setupSeconds []float64       // build + start, once per set-up
	warmup       time.Duration   // the one validating warm-up pass
	passTimes    []time.Duration // Σ request latencies of each timed pass
	passCPU      []time.Duration // server CPU time of each timed pass
	passRSS      []float64       // server resident set after each timed pass, bytes
	minLat       []time.Duration // per op, minimum over timed passes
	rawLat       []time.Duration // every timed request as measured, pooled
	respBytes    int64

	probeSamples map[string]int // calls behind each timed per-layer metric
	cal          *calibrator
	spanSummary  map[string]*spanTotals
}

func (r *runState) fail(format string, args ...any) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// searchBody is the part of the /search, /ranked and /query responses the
// validator reads.
type searchBody struct {
	Results []struct{ Object struct{ ID uint64 } } `json:"results"`
	Ranked  []struct{ Object struct{ ID uint64 } } `json:"ranked"`
	Count   int                                    `json:"count"`
}

func (b *searchBody) ids() []uint64 {
	rows := b.Results
	if len(rows) == 0 {
		rows = b.Ranked
	}
	ids := make([]uint64, len(rows))
	for i, row := range rows {
		ids[i] = row.Object.ID
	}
	return ids
}

// pass replays the op list once over the keep-alive connection, with a
// burst of the reference loop between every requestsPerBurst requests. With
// validate set every read answer is checked against the oracle; adds and
// deletes are applied to the model in every pass. It returns each op's
// latency and the box's speed during the pass.
func (r *runState) pass(ctx context.Context, validate bool) ([]time.Duration, float64, error) {
	lat := make([]time.Duration, len(r.ops))
	added := make(map[int]uint64)
	for i := range r.ops {
		if i%requestsPerBurst == 0 {
			if _, err := r.cal.burst(); err != nil {
				return nil, 0, err
			}
		}
		o := &r.ops[i]
		path := o.path
		r.attempted++
		if o.kind == opDelete {
			id, ok := added[o.addOp]
			if !ok {
				r.fail("op %d delete: add op %d of this pass failed", i, o.addOp)
				continue
			}
			path = "/objects/" + strconv.FormatUint(id, 10)
		}
		status, body, d, err := r.srv.do(ctx, o.method, path, o.body)
		if err != nil {
			if ctx.Err() != nil {
				return nil, 0, ctx.Err()
			}
			r.fail("op %d %s %s: %v", i, o.method, path, err)
			continue
		}
		lat[i] = d
		r.respBytes += int64(len(body))
		if status < 200 || status > 299 {
			r.fail("op %d %s %s: status %d: %.200s", i, o.method, path, status, body)
			continue
		}
		switch o.kind {
		case opAdd:
			var resp struct {
				ID uint64 `json:"id"`
			}
			if err := json.Unmarshal(body, &resp); err != nil || !r.mdl.add(resp.ID, o.point, o.text) {
				r.fail("op %d add: unexpected answer %.200s", i, body)
				continue
			}
			added[i] = resp.ID
		case opDelete:
			r.mdl.remove(added[o.addOp])
		default:
			if !validate {
				continue
			}
			var got searchBody
			if err := json.Unmarshal(body, &got); err != nil {
				r.fail("op %d: bad json: %v", i, err)
				continue
			}
			switch {
			case o.count:
				if want := r.mdl.expectCount(o); got.Count != want {
					r.fail("op %d %q: count %d, oracle %d", i, o.skql, got.Count, want)
				}
			case o.ranked:
				if want := r.rankedWant[i]; !sameIDs(got.ids(), want) {
					r.fail("op %d %s%s: ranked ids %v, in-process engine %v", i, o.path, o.skql, got.ids(), want)
				}
			default:
				if want := r.mdl.expectTopK(o); !sameIDs(got.ids(), want) {
					r.fail("op %d %s%s: ids %v, oracle %v", i, o.path, o.skql, got.ids(), want)
				}
			}
		}
	}
	return lat, r.cal.endPhase(), nil
}

// setUp builds the snapshot and starts skserve on it. It returns the time
// of build + (start → healthy) at the reference speed; the reference bursts
// interleaved with the build and computing the ranked oracle answers are
// not counted.
func (r *runState) setUp(ctx context.Context) (float64, error) {
	dir, err := os.MkdirTemp(r.work, "data-")
	if err != nil {
		return 0, err
	}
	var bursts time.Duration
	start := time.Now()
	b, err := buildSnapshot(r.w, r.c, dir, func() error {
		d, err := r.cal.burst()
		bursts += d
		return err
	})
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start) - bursts
	if r.rankedWant == nil {
		r.rankedWant = make(map[int][]uint64)
		cat := skql.NewCatalog(b)
		for i := range r.ops {
			if r.ops[i].ranked {
				ids, err := rankedIDs(b, cat, &r.ops[i])
				if err != nil {
					b.Close() //nolint:errcheck // already failing
					return 0, fmt.Errorf("ranked oracle, op %d: %w", i, err)
				}
				r.rankedWant[i] = ids
			}
		}
	}
	if err := b.Close(); err != nil {
		return 0, fmt.Errorf("close snapshot: %w", err)
	}

	start = time.Now()
	srv, err := startServer(ctx, r.opt.skserve, dir, r.w)
	if err != nil {
		return 0, err
	}
	r.srv = srv
	elapsed += time.Since(start)
	return elapsed.Seconds() / r.cal.endPhase(), nil
}

// tearDown stops the current server and removes its data directory.
func (r *runState) tearDown() {
	if r.srv != nil {
		r.srv.stop()
		os.RemoveAll(r.srv.dir) //nolint:errcheck // scratch under .bench_build
		r.srv = nil
	}
}

// timedPasses derives the pass count from the requested measuring time and
// the workload's frozen pass duration.
func (r *runState) timedPasses() int {
	if r.opt.passes > 0 {
		return r.opt.passes
	}
	seconds := r.opt.seconds
	if r.opt.traced {
		seconds /= 2 // the other half goes to the in-process traced replay
	}
	p := int(float64(seconds*1000) / (float64(r.w.passMs) * r.opt.opsScale))
	if p < 2 {
		p = 2
	}
	return p
}

// snapshot is the server-side state read before and after the timed passes.
type snapshot struct {
	ctr      counters
	walBytes int64
}

func (r *runState) snapshot(ctx context.Context) (snapshot, error) {
	var s snapshot
	var err error
	if s.ctr, err = r.srv.scrape(ctx); err != nil {
		return s, err
	}
	s.walBytes, err = r.srv.dirBytes("wal.")
	return s, err
}

// measured is everything the untraced HTTP phase yields.
type measured struct {
	passes   int
	delta    counters // /metrics after − before the timed passes
	walBytes int64    // growth of the WAL files over the timed passes
	stats    serverStats
	dirBytes int64
	idxBytes int64
	objBytes int64
}

// measure runs the set-ups and the timed passes against the live server.
func (r *runState) measure(ctx context.Context) (*measured, error) {
	for s := 0; s < r.opt.setups; s++ {
		r.tearDown()
		secs, err := r.setUp(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", s+1, err)
		}
		r.setupSeconds = append(r.setupSeconds, secs)
	}
	// The warm-up pass fills the caches, triggers lazy set-up (the SKQL
	// sidecar index) and validates every answer. It belongs to set-up time
	// but is a full pass long, so it runs once, on the server that is
	// measured.
	r.mdl = newModel(r.c)
	lat, speed, err := r.pass(ctx, true)
	if err != nil {
		return nil, err
	}
	for _, d := range lat {
		r.warmup += time.Duration(float64(d) / speed)
	}

	m := &measured{passes: r.timedPasses()}
	before, err := r.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	r.minLat = make([]time.Duration, len(r.ops))
	r.respBytes = 0
	for p := 0; p < m.passes; p++ {
		cpu0, err := r.srv.cpuTime()
		if err != nil {
			return nil, err
		}
		lat, speed, err := r.pass(ctx, false)
		if err != nil {
			return nil, err
		}
		cpu1, err := r.srv.cpuTime()
		if err != nil {
			return nil, err
		}
		// Everything timed in this pass is put at the reference speed
		// before passes are compared. A traced run keeps wall-clock values,
		// to be compared with the in-process times it measures.
		if r.opt.traced {
			speed = 1
		}
		var total time.Duration
		for i, d := range lat {
			r.rawLat = append(r.rawLat, d)
			d = time.Duration(float64(d) / speed)
			total += d
			if p == 0 || d < r.minLat[i] {
				r.minLat[i] = d
			}
		}
		r.passTimes = append(r.passTimes, total)
		r.passCPU = append(r.passCPU, time.Duration(float64(cpu1-cpu0)/speed))
		rss, err := r.srv.rss()
		if err != nil {
			return nil, err
		}
		r.passRSS = append(r.passRSS, float64(rss))
	}
	end, err := r.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	m.delta, m.walBytes = end.ctr.sub(before.ctr), end.walBytes-before.walBytes
	if err := r.srv.getJSON(ctx, "/stats", &m.stats); err != nil {
		return nil, err
	}
	if m.dirBytes, err = r.srv.dirBytes(""); err != nil {
		return nil, err
	}
	if m.idxBytes, err = r.srv.dirBytes("index.db"); err != nil {
		return nil, err
	}
	m.objBytes, err = r.srv.dirBytes("objects.db")
	return m, err
}

// percentile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(d []time.Duration) []time.Duration {
	out := slices.Clone(d)
	slices.Sort(out)
	return out
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ioBlocks sums sk_io_blocks_total for one kind over the whole-query
// records (shard="all"), which on the sharded backend avoids counting the
// per-shard slices a second time.
func ioBlocks(c counters, kind string) float64 {
	return c[`sk_io_blocks_total{kind="`+kind+`",shard="all"}`]
}

// endToEndMetrics turns the HTTP phase into the eight gated numbers. Every
// time in it is already at the reference speed (see calib.go).
func (r *runState) endToEndMetrics(m *measured) map[string]float64 {
	n := float64(len(r.ops))
	sorted := sortedCopy(r.minLat)
	return map[string]float64{
		"setup_s":          median(r.setupSeconds) + r.warmup.Seconds(),
		"throughput_ops_s": n / slices.Min(r.passTimes).Seconds(),
		"latency_p50_ms":   ms(percentile(sorted, 0.50)),
		"latency_p99_ms":   ms(percentile(sorted, 0.99)),
		"cpu_ms_per_op":    ms(slices.Min(r.passCPU)) / n,
		"io_blocks_per_op": (ioBlocks(m.delta, "random") + ioBlocks(m.delta, "sequential")) / (n * float64(m.passes)),
		"server_rss_mb":    median(r.passRSS) / 1e6,
		"space_amp":        float64(m.dirBytes) / float64(r.mdl.liveBytes),
	}
}

// newRun generates the inputs of one workload run.
func newRun(w workload, opt options) (*runState, error) {
	c, err := generate(w.dataset)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(opt.root, buildDir), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(opt.root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	cal, err := newCalibrator(work)
	if err != nil {
		os.RemoveAll(work) //nolint:errcheck // scratch under .bench_build
		return nil, err
	}
	return &runState{w: w, opt: opt, c: c, ops: makeOps(w.gen, int(float64(w.ops)*opt.opsScale), c, opt.seed), work: work, cal: cal,
		probeSamples: map[string]int{}}, nil
}

// close stops the server, if any, and removes the run's scratch directory.
func (r *runState) close() {
	r.tearDown()
	r.cal.close()
	os.RemoveAll(r.work) //nolint:errcheck // scratch under .bench_build
}
