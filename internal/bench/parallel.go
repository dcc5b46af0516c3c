package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/storage"
)

// ParallelThroughput measures the sharded engine (internal/shard): wall-clock
// queries per second, sweeping the shard count against the number of client
// goroutines. This experiment is not in the paper — it quantifies the
// scale-out extension. Unlike the figure harness, which models disk time, the
// numbers here are real elapsed time on the host's cores.
//
// One query runs on one goroutine: the sharded top-k is the first k of a
// sequential best-first merge over the shards' streams, whose early stop
// keeps distant shards from draining. Parallelism comes from the clients
// alone, and from the shards' separate locks letting their queries proceed
// side by side; a single client sees the merge's overhead over one tree,
// not a speedup.
func ParallelThroughput(spec dataset.Spec, sigBytes int, shardCounts, clientCounts []int, queriesPerClient int, seed int64) (*Table, error) {
	rows, bounds, stats, err := generateRows(spec)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Parallel top-k throughput — %s dataset, %d objects, sig %dB (scale-out extension)",
			stats.Name, len(rows), sigBytes),
		Columns: []string{"shards", "clients", "topkQPS", "rankedQPS", "topkSpeedup"},
		Notes: []string{
			"wall-clock QPS (not modeled disk time); speedup is topkQPS vs 1 shard at the same client count",
			"expect: shards > 1 cost a single client the merge's overhead; clients on idle cores gain",
		},
	}

	queries, err := throughputWorkload(rows, stats, 64, 2, seed)
	if err != nil {
		return nil, err
	}

	base := map[int]float64{} // client count → 1-shard topk QPS
	for _, n := range shardCounts {
		eng, err := buildSharded(rows, bounds, sigBytes, n)
		if err != nil {
			return nil, err
		}
		for _, clients := range clientCounts {
			topkQPS, err := measureQPS(clients, queriesPerClient, func(q *throughputQuery) error {
				_, err := eng.TopK(10, q.point, q.keywords...)
				return err
			}, queries)
			if err != nil {
				return nil, err
			}
			rankedQPS, err := measureQPS(clients, queriesPerClient, func(q *throughputQuery) error {
				_, err := eng.TopKRanked(10, q.point, q.keywords...)
				return err
			}, queries)
			if err != nil {
				return nil, err
			}
			if n == shardCounts[0] {
				base[clients] = topkQPS
			}
			speedup := "-"
			if b := base[clients]; b > 0 {
				speedup = fmt.Sprintf("%.2fx", topkQPS/b)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", n), fmt.Sprintf("%d", clients),
				fmt.Sprintf("%.0f", topkQPS), fmt.Sprintf("%.0f", rankedQPS), speedup,
			})
		}
	}
	return t, nil
}

// ShardedDiskScaling measures the sharded engine under the harness's
// standard cost accounting (modeled disk time + measured CPU, see
// DefaultCostModel), with one independent device per shard — the
// paper-era shared-nothing deployment sharding models (one spindle per
// shard). Queries use the sharded engine's best-first merge (TopK,
// TopKRanked), which pulls the minimum per-device I/O of an exact merge
// whatever the host's core count. Each shard's devices are metered
// separately, giving two numbers per shard count:
//
//   - throughput: modeled wall time is the busiest device's total busy
//     time over the workload (plus total CPU, negligible against disk) —
//     the bottleneck of a shared-nothing system with queries in flight on
//     every device. Hot shards rotate with the query point, so the
//     workload's disk work spreads even though each query's does not;
//   - latency: a single query's modeled time is the slowest shard it fans
//     out to (devices seek in parallel, the merge overlaps them) plus CPU.
//
// This is the disk-bound complement to ParallelThroughput's wall clock: it
// shows what partitioning buys when disks, not the host's CPU count, are
// the limit.
func ShardedDiskScaling(spec dataset.Spec, sigBytes int, shardCounts []int, nQueries int, seed int64, cm storage.CostModel) (*Table, error) {
	rows, bounds, stats, err := generateRows(spec)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Sharded disk-time scaling — %s dataset, %d objects, sig %dB (scale-out extension)",
			stats.Name, len(rows), sigBytes),
		Columns: []string{"shards", "topkQPS", "rankedQPS", "latencyMs", "randBlk", "topkSpeedup"},
		Notes: []string{
			"best-first merge (TopK), one device per shard; QPS = workload / (busiest device's disk time + CPU)",
			"latencyMs = avg per-query modeled time (slowest shard + CPU); randBlk = avg random blocks/query, all shards",
			"expect: >1 shard beats 1 shard QPS — hot shards rotate with the query point, spreading disk work",
		},
	}
	queries, err := throughputWorkload(rows, stats, 64, 2, seed)
	if err != nil {
		return nil, err
	}
	var baseTopk float64
	for _, n := range shardCounts {
		eng, err := buildSharded(rows, bounds, sigBytes, n)
		if err != nil {
			return nil, err
		}
		topk, err := measureModeled(eng, queries, nQueries, cm, func(q *throughputQuery) error {
			_, err := eng.TopK(10, q.point, q.keywords...)
			return err
		})
		if err != nil {
			return nil, err
		}
		ranked, err := measureModeled(eng, queries, nQueries, cm, func(q *throughputQuery) error {
			_, err := eng.TopKRanked(10, q.point, q.keywords...)
			return err
		})
		if err != nil {
			return nil, err
		}
		if n == shardCounts[0] {
			baseTopk = topk.qps
		}
		speedup := "-"
		if baseTopk > 0 {
			speedup = fmt.Sprintf("%.2fx", topk.qps/baseTopk)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", topk.qps), fmt.Sprintf("%.1f", ranked.qps),
			fmt.Sprintf("%.2f", topk.latencyMS), fmt.Sprintf("%.1f", topk.avgBlocks), speedup,
		})
	}
	return t, nil
}

// modeledRun summarizes a metered workload under the cost model.
type modeledRun struct {
	qps       float64 // workload / (busiest device's busy time + total CPU)
	latencyMS float64 // avg per-query slowest-shard disk time + CPU
	avgBlocks float64 // avg random blocks per query, summed over shards
}

// measureModeled runs the workload sequentially, metering every shard's
// devices per query and attributing each query's disk work to the shards
// that did it.
func measureModeled(eng *shard.ShardedEngine, queries []throughputQuery, nQueries int, cm storage.CostModel, run func(*throughputQuery) error) (modeledRun, error) {
	var busy []time.Duration // per-shard total disk time over the workload
	var latency, totalCPU time.Duration
	var blocks uint64
	for i := 0; i < nQueries; i++ {
		q := &queries[i%len(queries)]
		stop := eng.MeterShardIO()
		//skvet:ignore determinism CPU time is wall-clock by definition; it is reported apart from modeled disk time
		start := time.Now()
		if err := run(q); err != nil {
			return modeledRun{}, err
		}
		//skvet:ignore determinism CPU time is wall-clock by definition; it is reported apart from modeled disk time
		cpu := time.Since(start)
		perShard := stop()
		if busy == nil {
			busy = make([]time.Duration, len(perShard))
		}
		var worst time.Duration
		for s, st := range perShard {
			d := cm.Time(st)
			busy[s] += d
			if d > worst {
				worst = d
			}
			blocks += st.Random()
		}
		latency += worst + cpu
		totalCPU += cpu
	}
	wall := totalCPU
	for _, b := range busy {
		if wall < b+totalCPU {
			wall = b + totalCPU
		}
	}
	if wall <= 0 {
		wall = time.Nanosecond
	}
	n := float64(nQueries)
	return modeledRun{
		qps:       n / wall.Seconds(),
		latencyMS: latency.Seconds() * 1000 / n,
		avgBlocks: float64(blocks) / n,
	}, nil
}

// generateRows materializes a dataset spec into plain rows plus its MBR.
func generateRows(spec dataset.Spec) ([]spatialkeyword.Object, geo.Rect, *dataset.Stats, error) {
	st := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
	stats, err := dataset.Generate(spec, st)
	if err != nil {
		return nil, geo.Rect{}, nil, err
	}
	var rows []spatialkeyword.Object
	var bounds geo.Rect
	err = st.Scan(func(o objstore.Object, _ objstore.Ptr) error {
		rows = append(rows, spatialkeyword.Object{ID: uint64(o.ID), Point: o.Point, Text: o.Text})
		r := geo.PointRect(o.Point)
		if bounds.IsZero() {
			bounds = r
		} else {
			bounds = bounds.Union(r)
		}
		return nil
	})
	if err != nil {
		return nil, geo.Rect{}, nil, err
	}
	return rows, bounds, stats, nil
}

// buildSharded loads the rows into a fresh n-shard engine (grid-partitioned
// over the dataset MBR) and indexes them before any query is metered: each
// shard flushes its load as one batch, which packs its tree.
func buildSharded(rows []spatialkeyword.Object, bounds geo.Rect, sigBytes, n int) (*shard.ShardedEngine, error) {
	eng, err := shard.New(spatialkeyword.Config{SignatureBytes: sigBytes}, shard.Options{
		Shards: n,
		Bounds: bounds,
	})
	if err != nil {
		return nil, err
	}
	for _, o := range rows {
		if _, err := eng.Add(o.Point, o.Text); err != nil {
			return nil, err
		}
	}
	return eng, eng.Flush()
}

// throughputQuery is one pre-generated query of the throughput workload.
type throughputQuery struct {
	point    []float64
	keywords []string
}

// throughputWorkload pre-generates n queries following the data distribution
// with keywords from the moderately frequent vocabulary band, mirroring
// Env.MakeQueries.
func throughputWorkload(rows []spatialkeyword.Object, stats *dataset.Stats, n, numKeywords int, seed int64) ([]throughputQuery, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("bench: empty dataset")
	}
	band := stats.WordsByFreq()
	if len(band) > 40 {
		band = band[2:40]
	}
	if len(band) == 0 {
		return nil, fmt.Errorf("bench: empty vocabulary")
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]throughputQuery, n)
	for i := range out {
		o := rows[rng.Intn(len(rows))]
		kws := make([]string, 0, numKeywords)
		seen := map[string]bool{}
		for len(kws) < numKeywords {
			w := band[rng.Intn(len(band))]
			if !seen[w] {
				seen[w] = true
				kws = append(kws, w)
			}
		}
		out[i] = throughputQuery{
			point:    []float64{o.Point[0] + rng.NormFloat64()*50, o.Point[1] + rng.NormFloat64()*50},
			keywords: kws,
		}
	}
	return out, nil
}

// measureQPS runs clients×queriesPerClient queries (round-robin over the
// workload, offset per client) and returns wall-clock queries per second.
func measureQPS(clients, queriesPerClient int, run func(*throughputQuery) error, queries []throughputQuery) (float64, error) {
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	//skvet:ignore determinism measured throughput is wall-clock by definition; modeled disk time is reported separately
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < queriesPerClient; i++ {
				q := &queries[(c*queriesPerClient+i)%len(queries)]
				if err := run(q); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	//skvet:ignore determinism measured throughput is wall-clock by definition; modeled disk time is reported separately
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, firstErr
	}
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(clients*queriesPerClient) / elapsed.Seconds(), nil
}
