// Benchmarks regenerating the paper's evaluation, one per table and figure.
// Each benchmark prepares a scaled environment once (cached across
// benchmarks) and then measures query work per operation, reporting the
// evaluation's metrics — random/sequential disk blocks and object accesses
// per query — via b.ReportMetric. Run the full evaluation with:
//
//	go test -bench=. -benchmem
//
// The full-size datasets (Table 1 scale) are available through cmd/skbench
// with -scale 1; benchmarks default to a laptop-friendly scale.
package spatialkeyword_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/bench"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/storage"
)

// benchScale keeps benchmark dataset sizes laptop-friendly while preserving
// the figures' shapes. Hotels documents are ~350 words, so it gets a
// smaller object count than Restaurants, like the paper's originals.
const (
	hotelsScale      = 0.01 // 1,293 objects × ~350 words
	restaurantsScale = 0.01 // 4,562 objects × ~14 words
)

var (
	envMu    sync.Mutex
	envCache = map[string]*bench.Env{}
)

// sharedEnv builds (once) and returns the environment for a dataset at its
// paper-default signature length.
func sharedEnv(b *testing.B, name string) *bench.Env {
	b.Helper()
	envMu.Lock()
	defer envMu.Unlock()
	if e, ok := envCache[name]; ok {
		return e
	}
	var cfg bench.BuildConfig
	switch name {
	case "hotels":
		cfg = bench.BuildConfig{Spec: dataset.Hotels(hotelsScale), SigBytes: 189}
	case "restaurants":
		cfg = bench.BuildConfig{Spec: dataset.Restaurants(restaurantsScale), SigBytes: 8}
	default:
		b.Fatalf("unknown dataset %q", name)
	}
	e, err := bench.BuildEnv(cfg)
	if err != nil {
		b.Fatal(err)
	}
	envCache[name] = e
	return e
}

// runWorkload measures one (method, workload) cell: queries cycled b.N
// times, disk blocks and object accesses reported per query.
func runWorkload(b *testing.B, e *bench.Env, m bench.Method, queries []bench.Query) {
	b.Helper()
	var random, sequential, objects, results uint64
	disks := []storage.Device{e.ObjDisk}
	switch m {
	case bench.MethodRTree:
		disks = append(disks, e.RTreeDisk)
	case bench.MethodIIO:
		disks = append(disks, e.IIODisk)
	case bench.MethodIR2:
		disks = append(disks, e.IR2Disk)
	case bench.MethodMIR2:
		disks = append(disks, e.MIR2Disk)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		for _, d := range disks {
			d.ResetStats()
		}
		n, objs, err := e.RunQuery(m, q)
		if err != nil {
			b.Fatal(err)
		}
		results += uint64(n)
		objects += uint64(objs)
		for _, d := range disks {
			s := d.Stats()
			random += s.Random()
			sequential += s.Sequential()
		}
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(random)/n, "randBlk/op")
	b.ReportMetric(float64(sequential)/n, "seqBlk/op")
	b.ReportMetric(float64(objects)/n, "objAcc/op")
	b.ReportMetric(float64(results)/n, "results/op")
}

// varyK runs the Figure 9/12 sweep for one dataset.
func varyK(b *testing.B, name string) {
	e := sharedEnv(b, name)
	for _, k := range []int{1, 10, 50} {
		queries, err := e.MakeQueries(16, k, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range bench.AllMethods {
			b.Run(fmt.Sprintf("k=%d/%s", k, m), func(b *testing.B) {
				runWorkload(b, e, m, queries)
			})
		}
	}
}

// BenchmarkFig09VaryKHotels reproduces Figure 9: Hotels, 2 keywords,
// signature 189 B, sweeping k.
func BenchmarkFig09VaryKHotels(b *testing.B) { varyK(b, "hotels") }

// BenchmarkFig12VaryKRestaurants reproduces Figure 12: Restaurants,
// 2 keywords, signature 8 B, sweeping k.
func BenchmarkFig12VaryKRestaurants(b *testing.B) { varyK(b, "restaurants") }

// varyKeywords runs the Figure 10/13 sweep for one dataset.
func varyKeywords(b *testing.B, name string) {
	e := sharedEnv(b, name)
	for _, m := range []int{1, 2, 4} {
		queries, err := e.MakeQueries(16, 10, m, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, method := range bench.AllMethods {
			b.Run(fmt.Sprintf("m=%d/%s", m, method), func(b *testing.B) {
				runWorkload(b, e, method, queries)
			})
		}
	}
}

// BenchmarkFig10VaryKeywordsHotels reproduces Figure 10: Hotels, k=10,
// sweeping the number of query keywords.
func BenchmarkFig10VaryKeywordsHotels(b *testing.B) { varyKeywords(b, "hotels") }

// BenchmarkFig13VaryKeywordsRestaurants reproduces Figure 13: Restaurants,
// k=10, sweeping the number of query keywords.
func BenchmarkFig13VaryKeywordsRestaurants(b *testing.B) { varyKeywords(b, "restaurants") }

// varySigLen runs the Figure 11/14 sweep: IR²/MIR² rebuilt per signature
// length (reported as size metrics), object accesses as the headline metric.
func varySigLen(b *testing.B, name string, lengths []int) {
	base := sharedEnv(b, name)
	queries, err := base.MakeQueries(16, 10, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, length := range lengths {
		envMu.Lock()
		key := fmt.Sprintf("%s/sig=%d", name, length)
		e, ok := envCache[key]
		if !ok {
			var cfg bench.BuildConfig
			if name == "hotels" {
				cfg = bench.BuildConfig{Spec: dataset.Hotels(hotelsScale), SigBytes: length}
			} else {
				cfg = bench.BuildConfig{Spec: dataset.Restaurants(restaurantsScale), SigBytes: length}
			}
			cfg.Methods = []bench.Method{bench.MethodIR2, bench.MethodMIR2}
			e, err = bench.BuildEnv(cfg)
			if err != nil {
				envMu.Unlock()
				b.Fatal(err)
			}
			envCache[key] = e
		}
		envMu.Unlock()
		for _, m := range []bench.Method{bench.MethodIR2, bench.MethodMIR2} {
			b.Run(fmt.Sprintf("sig=%dB/%s", length, m), func(b *testing.B) {
				runWorkload(b, e, m, queries)
				if m == bench.MethodIR2 {
					b.ReportMetric(e.IR2.SizeMB(), "treeMB")
				} else {
					b.ReportMetric(e.MIR2.SizeMB(), "treeMB")
				}
			})
		}
	}
}

// BenchmarkFig11VarySigLenHotels reproduces Figure 11: Hotels, k=10,
// 2 keywords, sweeping the signature length.
func BenchmarkFig11VarySigLenHotels(b *testing.B) {
	varySigLen(b, "hotels", []int{64, 189, 384})
}

// BenchmarkFig14VarySigLenRestaurants reproduces Figure 14: Restaurants,
// k=10, 2 keywords, sweeping the signature length.
func BenchmarkFig14VarySigLenRestaurants(b *testing.B) {
	varySigLen(b, "restaurants", []int{2, 8, 32})
}

// BenchmarkTable2IndexSizes reproduces Table 2: the on-disk sizes of all
// four structures over both datasets, reported as metrics of a build run.
func BenchmarkTable2IndexSizes(b *testing.B) {
	for _, name := range []string{"hotels", "restaurants"} {
		b.Run(name, func(b *testing.B) {
			e := sharedEnv(b, name)
			for i := 0; i < b.N; i++ {
				// Sizes are static after the cached build; the benchmark
				// exists to surface them in -bench output.
			}
			b.ReportMetric(e.IIO.SizeMB(), "iioMB")
			b.ReportMetric(e.RTree.SizeMB(), "rtreeMB")
			b.ReportMetric(e.IR2.SizeMB(), "ir2MB")
			b.ReportMetric(e.MIR2.SizeMB(), "mir2MB")
			b.ReportMetric(float64(e.Stats.Objects), "objects")
		})
	}
}

// BenchmarkMaintenanceInsert quantifies the paper's Section 4 maintenance
// claim (E-X1): per-insert cost for the R-Tree, IR²-Tree, and the expensive
// MIR²-Tree. Environments are private per method: inserts mutate them.
func BenchmarkMaintenanceInsert(b *testing.B) {
	for _, m := range []bench.Method{bench.MethodRTree, bench.MethodIR2, bench.MethodMIR2} {
		b.Run(m.String(), func(b *testing.B) {
			e, err := bench.BuildEnv(bench.BuildConfig{
				Spec:     dataset.Restaurants(0.002),
				SigBytes: 8,
				Methods:  []bench.Method{m},
			})
			if err != nil {
				b.Fatal(err)
			}
			// Pre-append the objects to insert so appends are not timed.
			type pending struct {
				id  uint64
				ptr uint64
			}
			objs := make([]pending, b.N)
			for i := range objs {
				src, err := e.Store.GetByID(0)
				if err != nil {
					b.Fatal(err)
				}
				id, ptr, _ := e.Store.Append(src.Point, src.Text)
				objs[i] = pending{uint64(id), uint64(ptr)}
			}
			if err := e.Store.Sync(); err != nil {
				b.Fatal(err)
			}
			var random uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obj, err := e.Store.GetByID(objstore.ID(objs[i].id))
				if err != nil {
					b.Fatal(err)
				}
				for _, d := range []storage.Device{e.ObjDisk, e.RTreeDisk, e.IR2Disk, e.MIR2Disk} {
					if d != nil {
						d.ResetStats()
					}
				}
				switch m {
				case bench.MethodRTree:
					err = e.RTree.Insert(obj, objstore.Ptr(objs[i].ptr))
				case bench.MethodIR2:
					err = e.IR2.Insert(obj, objstore.Ptr(objs[i].ptr))
				case bench.MethodMIR2:
					err = e.MIR2.Insert(obj, objstore.Ptr(objs[i].ptr))
				}
				if err != nil {
					b.Fatal(err)
				}
				for _, d := range []storage.Device{e.ObjDisk, e.RTreeDisk, e.IR2Disk, e.MIR2Disk} {
					if d != nil {
						random += d.Stats().Random()
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(random)/float64(b.N), "randBlk/op")
		})
	}
}

// BenchmarkSelectivitySweep covers the Section 6.B discussion (E-X2):
// method cost across keyword document frequencies, from the most common
// word to the rare tail.
func BenchmarkSelectivitySweep(b *testing.B) {
	e := sharedEnv(b, "restaurants")
	vocab := e.Stats.VocabUsed
	for _, rank := range []int{0, vocab / 10, vocab - 2} {
		kw := e.KeywordsAtRank(rank, 1)
		queries := make([]bench.Query, 8)
		for i := range queries {
			obj, err := e.Store.GetByID(0)
			if err != nil {
				b.Fatal(err)
			}
			queries[i] = bench.Query{K: 10, P: obj.Point, Keywords: kw}
		}
		df := e.Stats.DocFreq[kw[0]]
		for _, m := range bench.AllMethods {
			b.Run(fmt.Sprintf("df=%d/%s", df, m), func(b *testing.B) {
				runWorkload(b, e, m, queries)
			})
		}
	}
}

// BenchmarkDurableLoad times a durable engine's first load: every row of
// Restaurants(0.03) Added to a fresh NewDurableEngine on a file-backed storage.Disk,
// then Save — the set-up benchmarks/perf's single-engine workloads pay. The
// Save flushes the whole batch into the empty tree, which packs it. It
// reports the load rate in objects/s beside ns/op.
func BenchmarkDurableLoad(b *testing.B) {
	store := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
	if _, err := dataset.Generate(dataset.Restaurants(0.03), store); err != nil {
		b.Fatal(err)
	}
	var rows []objstore.Object
	if err := store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
		rows = append(rows, o)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := spatialkeyword.NewDurableEngine(spatialkeyword.Config{SignatureBytes: 64}, b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range rows {
			if _, err := eng.Add(o.Point, o.Text); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.Save(); err != nil {
			b.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)*b.N)/b.Elapsed().Seconds(), "objects/s")
}

// BenchmarkOpenEngine times a restart: OpenEngine of a saved Hotels(0.02)
// engine with 189-byte signatures (what benchmarks/perf's ranked_hotels
// serves), then Close. The open rebuilds the vocabulary and every row's
// term-frequency summary with one scan of the object file, analyzing each
// row once; that scan is most of the time. Beside ns/op it reports rows
// opened per second.
func BenchmarkOpenEngine(b *testing.B) {
	dir, points, _, _ := savedBenchEngine(b, dataset.Hotels(0.02), 189)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := spatialkeyword.OpenEngine(dir)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(points)*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkDurableTopK times the query skserve -dir answers: a warm
// two-keyword conjunctive TopK on a saved-and-reopened engine, i.e. on
// a file-backed storage.Disk — the shape of benchmarks/perf's topk_restaurants
// (Restaurants(0.03), 64-byte signatures, one keyword from the top 2 % of
// words by document frequency and one from the next 18 %) without HTTP
// around it. serial is one goroutine, and reports the blocks a query reads;
// parallel is b.RunParallel, whose ns/op falls below serial's only if
// concurrent queries do not serialise at the device.
func BenchmarkDurableTopK(b *testing.B) {
	eng, points, frequent, mid := durableBenchEngine(b, dataset.Restaurants(0.03), 64)
	type query struct {
		point []float64
		words []string
	}
	queries := make([]query, 256)
	for i := range queries {
		queries[i] = query{
			point: points[i*len(points)/len(queries)],
			words: []string{frequent[i*7%len(frequent)], mid[i*13%len(mid)]},
		}
	}
	run := func(b *testing.B, q query) uint64 {
		_, st, err := eng.TopKWithStats(10, q.point, q.words...)
		if err != nil {
			b.Error(err)
		}
		return st.BlocksRandom + st.BlocksSequential
	}
	for _, q := range queries { // warm the node cache
		run(b, q)
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		var blocks uint64
		for i := 0; i < b.N; i++ {
			blocks += run(b, queries[i%len(queries)])
		}
		b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		var next atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				run(b, queries[next.Add(1)%uint64(len(queries))])
			}
		})
	})
}

// durableBenchEngine generates spec, Adds every row to a fresh durable
// engine with sigBytes-byte signatures, saves it and reopens it, as skserve
// -dir serves it. It returns the reopened engine (closed when b ends), every
// row's point, and the keyword bands benchmarks/perf draws queries from: the
// top 2 % of words by document frequency and the next 18 %.
func durableBenchEngine(b *testing.B, spec dataset.Spec, sigBytes int) (eng *spatialkeyword.Engine, points [][]float64, frequent, mid []string) {
	b.Helper()
	dir, points, frequent, mid := savedBenchEngine(b, spec, sigBytes)
	eng, err := spatialkeyword.OpenEngine(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	return eng, points, frequent, mid
}

// savedBenchEngine is durableBenchEngine's build: it saves the engine and
// returns its directory, unopened.
func savedBenchEngine(b *testing.B, spec dataset.Spec, sigBytes int) (dir string, points [][]float64, frequent, mid []string) {
	b.Helper()
	store := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
	stats, err := dataset.Generate(spec, store)
	if err != nil {
		b.Fatal(err)
	}
	dir = b.TempDir()
	built, err := spatialkeyword.NewDurableEngine(spatialkeyword.Config{SignatureBytes: sigBytes}, dir)
	if err != nil {
		b.Fatal(err)
	}
	err = store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
		points = append(points, o.Point)
		_, err := built.Add(o.Point, o.Text)
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := built.Save(); err != nil {
		b.Fatal(err)
	}
	if err := built.Close(); err != nil {
		b.Fatal(err)
	}
	words := stats.WordsByFreq()
	return dir, points, words[:len(words)/50], words[len(words)/50 : len(words)/5]
}

// BenchmarkWritesBesideReads runs benchmarks/perf's mixed_rw_wal shape in
// process on a saved-and-reopened Restaurants(0.03) engine with 64-byte
// signatures: an op is one Add (a frequent word and 13 mid-band ones at a
// row's point), eight warm two-keyword TopK searches, then the Delete of the
// add from ten ops before, so the queued run never holds more than two rows.
// Beside ns/op it reports, per search, the blocks read (blocks/search) and
// the index device's writes (idxwrites/search: 0, since the adds wait in
// the run the searches scan in memory and the deletes take them out of it).
func BenchmarkWritesBesideReads(b *testing.B) {
	eng, points, frequent, mid := durableBenchEngine(b, dataset.Restaurants(0.03), 64)
	const searches = 8
	search := func(i int) uint64 {
		_, st, err := eng.TopKWithStats(10, points[i*7919%len(points)], frequent[i*7%len(frequent)], mid[i*13%len(mid)])
		if err != nil {
			b.Fatal(err)
		}
		return st.BlocksRandom + st.BlocksSequential
	}
	for i := 0; i < 256; i++ { // warm the node cache
		search(i)
	}
	var blocks uint64
	var last uint64
	have := false
	idx := spatialkeyword.IndexIO(eng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		words := []string{frequent[i%len(frequent)]}
		for j := 1; j < 14; j++ {
			words = append(words, mid[(i*13+j*31)%len(mid)])
		}
		id, err := eng.Add(points[i*4099%len(points)], strings.Join(words, " "))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < searches; j++ {
			blocks += search(i*searches + j)
		}
		if have {
			if err := eng.Delete(last); err != nil {
				b.Fatal(err)
			}
		}
		last, have = id, true
	}
	b.StopTimer()
	w := spatialkeyword.IndexIO(eng).Sub(idx)
	n := float64(b.N * searches)
	b.ReportMetric(float64(blocks)/n, "blocks/search")
	b.ReportMetric(float64(w.RandomWrites+w.SequentialWrites)/n, "idxwrites/search")
}

// BenchmarkDurableRanked times the query skserve -dir answers on /ranked: a
// warm general ranked top-10 on a saved-and-reopened engine — the shape of
// benchmarks/perf's ranked_hotels (Hotels(0.02), 189-byte signatures, one
// keyword from the top 2 % of words by document frequency and two from the
// next 18 %) without HTTP around it. Beside ns/op it reports the objects
// loaded and the disk blocks read per query.
func BenchmarkDurableRanked(b *testing.B) {
	eng, points, frequent, mid := durableBenchEngine(b, dataset.Hotels(0.02), 189)
	type query struct {
		point []float64
		words []string
	}
	queries := make([]query, 256)
	for i := range queries {
		queries[i] = query{
			point: points[i*len(points)/len(queries)],
			words: []string{frequent[i*7%len(frequent)], mid[i*13%len(mid)], mid[i*29%len(mid)]},
		}
	}
	var res []spatialkeyword.RankedResult
	run := func(q query) spatialkeyword.QueryStats {
		it, err := eng.SearchRanked(q.point, q.words...)
		if err != nil {
			b.Fatal(err)
		}
		if res, err = spatialkeyword.FirstK(res, it, 10, nil); err != nil {
			b.Fatal(err)
		}
		it.Close()
		return it.Stats()
	}
	for _, q := range queries { // warm the node cache
		run(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var objects, blocks uint64
	for i := 0; i < b.N; i++ {
		st := run(queries[i%len(queries)])
		objects += uint64(st.ObjectsLoaded)
		blocks += st.BlocksRandom + st.BlocksSequential
	}
	b.ReportMetric(float64(objects)/float64(b.N), "objects/op")
	b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
}

// BenchmarkWithinArea times the boolean range query no benchmarks/perf
// workload runs: a warm WithinArea on a saved-and-reopened Restaurants(0.05)
// engine (64-byte signatures), the rectangle ±400 around a row's point, with
// one keyword from the top 2 % of words by document frequency (frequent) or
// from the next 18 % (mid). Beside ns/op it reports the results, the nodes
// expanded and the disk blocks read per query.
func BenchmarkWithinArea(b *testing.B) {
	eng, points, frequent, mid := durableBenchEngine(b, dataset.Restaurants(0.05), 64)
	for _, band := range []struct {
		name  string
		words []string
	}{{"mid", mid}, {"frequent", frequent}} {
		b.Run(band.name, func(b *testing.B) {
			type query struct {
				lo, hi []float64
				word   string
			}
			queries := make([]query, 256)
			for i := range queries {
				p := points[i*len(points)/len(queries)]
				queries[i] = query{
					lo:   []float64{p[0] - 400, p[1] - 400},
					hi:   []float64{p[0] + 400, p[1] + 400},
					word: band.words[i*13%len(band.words)],
				}
			}
			run := func(q query) (int, spatialkeyword.QueryStats) {
				res, st, err := eng.WithinArea(q.lo, q.hi, q.word)
				if err != nil {
					b.Fatal(err)
				}
				return len(res), st
			}
			for _, q := range queries { // warm the node cache
				run(q)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var results, nodes int
			var blocks uint64
			for i := 0; i < b.N; i++ {
				n, st := run(queries[i%len(queries)])
				results += n
				nodes += st.NodesLoaded
				blocks += st.BlocksRandom + st.BlocksSequential
			}
			b.ReportMetric(float64(results)/float64(b.N), "results/op")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
		})
	}
}
