package main

import (
	"path/filepath"
	"time"

	"spatialkeyword/internal/core"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/invindex"
	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/skql"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
	"spatialkeyword/internal/wal"
)

// probeCalls is the sample count of the per-call micro-probes.
const probeCalls = 200

// probeSink keeps results of probed calls live so the compiler cannot drop
// the calls.
var probeSink int

// probes times the public functions of the layers below the engine on
// instances built from the workload's corpus: an in-memory object store,
// IR2-Tree and inverted index, and a WAL on a file in the run's scratch
// directory. b and cat are the in-process engine of the traced replay.
func (r *runState) probes(b backend, cat *skql.Catalog) (map[string]float64, error) {
	out := map[string]float64{}
	record := func(name string, total time.Duration, calls int, unit time.Duration) {
		out[name] = float64(total) / float64(unit) / float64(calls)
		r.probeSamples[name] = calls
	}
	n := len(r.c.objects)
	stride := n/probeCalls + 1
	var an *textutil.Analyzer // the engine's default text pipeline

	// Query shapes for the probes: the workload's corpus, the topk generator.
	queries := makeOps(genTopK, probeCalls, r.c, r.opt.seed)

	// objstore.append_us: every row of the corpus.
	store := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
	start := time.Now()
	for i := range r.c.objects {
		o := &r.c.objects[i]
		if _, _, err := store.Append(geo.NewPoint(o.point[:]...), o.text); err != nil {
			return nil, err
		}
	}
	if err := store.Sync(); err != nil {
		return nil, err
	}
	record("objstore.append_us", time.Since(start), n, time.Microsecond)

	// rtree.insert_us: IR2-Tree inserts (document signature + R-Tree
	// insert with signature maintenance) once the tree is nine tenths full.
	leaf := sigfile.Config{LengthBytes: r.w.sig, BitsPerWord: sigfile.DefaultBitsPerWord}
	tree, err := core.New(storage.NewDisk(storage.DefaultBlockSize), store, core.Options{LeafSignature: leaf})
	if err != nil {
		return nil, err
	}
	var tail time.Duration
	tailFrom, inserted := n-n/10, 0
	err = store.Scan(func(o objstore.Object, ptr objstore.Ptr) error {
		start := time.Now()
		err := tree.Insert(o, ptr)
		if inserted >= tailFrom {
			tail += time.Since(start)
		}
		inserted++
		return err
	})
	if err != nil {
		return nil, err
	}
	record("rtree.insert_us", tail, n-tailFrom, time.Microsecond)
	out["rtree.nodes"] = float64(tree.RTree().NumNodes())

	// rtree.nn10_us: the plain incremental nearest-neighbour iterator, no
	// signature pruning, ten results.
	start = time.Now()
	for i := range queries {
		it := tree.RTree().NearestNeighbors(geo.NewPoint(queries[i].point[:]...), nil)
		for k := 0; k < 10; k++ {
			if _, _, ok, err := it.Next(); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		it.Close()
	}
	record("rtree.nn10_us", time.Since(start), len(queries), time.Microsecond)

	// sigfile.docsig_us and sigfile.match_ns.
	docs := make([]sigfile.Signature, 0, probeCalls)
	start = time.Now()
	for i := 0; i < n; i += stride {
		docs = append(docs, leaf.DocSignature(an.Unique(r.c.objects[i].text)))
	}
	record("sigfile.docsig_us", time.Since(start), len(docs), time.Microsecond)
	matchCalls, matched := 0, 0
	start = time.Now()
	for i := range queries {
		q := leaf.DocSignature(queries[i].words)
		for rep := 0; rep < 10; rep++ {
			for _, d := range docs {
				if sigfile.Matches(d, q) {
					matched++
				}
				matchCalls++
			}
		}
	}
	record("sigfile.match_ns", time.Since(start), matchCalls, time.Nanosecond)
	probeSink += matched

	// objstore.get_us and objstore.get_filtered_us on the same rows; the
	// filter is the keyword check a signature false positive fails.
	ptrs := store.Ptrs()
	start = time.Now()
	gets := 0
	for i := 0; i < n; i += stride {
		if _, err := store.Get(ptrs[i]); err != nil {
			return nil, err
		}
		gets++
	}
	record("objstore.get_us", time.Since(start), gets, time.Microsecond)
	var scratch objstore.RowScratch
	terms := queries[0].words
	start = time.Now()
	for i := 0; i < n; i += stride {
		if _, _, err := store.GetFiltered(ptrs[i], &scratch, func(text []byte) bool {
			return an.ContainsTermsBytes(text, terms)
		}); err != nil {
			return nil, err
		}
	}
	record("objstore.get_filtered_us", time.Since(start), gets, time.Microsecond)

	// textutil.tokens_us_per_doc and irscore.score_us_per_doc.
	start = time.Now()
	for i := 0; i < n; i += stride {
		probeSink += len(textutil.Tokenize(r.c.objects[i].text))
	}
	record("textutil.tokens_us_per_doc", time.Since(start), gets, time.Microsecond)

	// invindex.build_ms: tokenize, post and build over the whole corpus,
	// which is what one rebuild of the SKQL sidecar index costs.
	start = time.Now()
	ix := invindex.New(storage.NewDisk(storage.DefaultBlockSize))
	for i := range r.c.objects {
		ix.Add(uint64(i), an.Unique(r.c.objects[i].text))
	}
	if err := ix.Build(); err != nil {
		return nil, err
	}
	record("invindex.build_ms", time.Since(start), 1, time.Millisecond)
	start = time.Now()
	for i := range queries {
		if _, err := ix.Intersect(queries[i].words); err != nil {
			return nil, err
		}
	}
	record("invindex.intersect_us", time.Since(start), len(queries), time.Microsecond)

	scorer := irscore.NewScorer(n, ix.DocFreq)
	start = time.Now()
	for i, q := 0, 0; i < n; i, q = i+stride, q+1 {
		scorer.Score(r.c.objects[i].text, queries[q%len(queries)].words)
	}
	record("irscore.score_us_per_doc", time.Since(start), gets, time.Microsecond)

	// wal.append_us: durable appends (one fsync each) on a real file.
	appendTime, err := probeWAL(filepath.Join(r.work, "probe-wal.db"), r.c)
	if err != nil {
		return nil, err
	}
	record("wal.append_us", appendTime, probeCalls, time.Microsecond)

	// skql.ensure_index_ms: the sidecar refresh one add forces.
	const refreshes = 3
	var refresh time.Duration
	for i := 0; i < refreshes; i++ {
		o := &r.c.objects[i]
		id, err := b.Add(o.point[:], o.text)
		if err != nil {
			return nil, err
		}
		if err := b.Flush(); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cat.EnsureIndex(); err != nil {
			return nil, err
		}
		refresh += time.Since(start)
		if err := b.Delete(id); err != nil {
			return nil, err
		}
	}
	record("skql.ensure_index_ms", refresh, refreshes, time.Millisecond)

	// shard.topk_parallel_us / shard.topk_serial_us.
	parallel, serial, err := shardedTopK(b, queries)
	if err != nil {
		return nil, err
	}
	record("shard.topk_parallel_us", parallel, len(queries), time.Microsecond)
	record("shard.topk_serial_us", serial, len(queries), time.Microsecond)
	return out, nil
}

// probeWAL times probeCalls durable appends to a fresh log on a file.
func probeWAL(path string, c *corpus) (elapsed time.Duration, err error) {
	disk, err := storage.CreateFileDisk(path, storage.DefaultBlockSize)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := disk.Close(); err == nil {
			err = cerr
		}
	}()
	log, err := wal.Create(disk)
	if err != nil {
		return 0, err
	}
	app := wal.NewAppender(log, 0)
	start := time.Now()
	for i := 0; i < probeCalls; i++ {
		o := &c.objects[i%len(c.objects)]
		if _, err := app.Append(wal.Record{Op: wal.OpAdd, ID: uint64(i), Point: o.point[:], Text: o.text}); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
