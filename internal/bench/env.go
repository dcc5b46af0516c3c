// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 6). It builds the four compared
// structures — R-Tree baseline, Inverted Index Only, IR²-Tree, and
// MIR²-Tree — over a synthetic dataset, generates seeded query workloads,
// and measures per-query execution time, random and sequential disk block
// accesses, and object accesses, exactly the metrics of Figures 9–14 and
// Tables 1–2.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"spatialkeyword/internal/core"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/invindex"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/obs"
	"spatialkeyword/internal/storage"
)

// Method identifies one of the four compared algorithms.
type Method int

// The four methods of the evaluation, plus the two durability arms of the
// ingest experiment, the two catch-up arms of the replication experiment,
// the fence-churn arm, and the three SKQL routing arms (which compare
// write-path strategies or planner choices, not query algorithms, and are
// therefore excluded from AllMethods).
const (
	MethodRTree Method = iota
	MethodIIO
	MethodIR2
	MethodMIR2
	MethodSavePerOp
	MethodWALGroup
	MethodReplSnapshot
	MethodReplShip
	MethodFenceWAL
	MethodSKQLPlanner
	MethodSKQLIR2
	MethodSKQLIIO
)

// AllMethods lists the methods in the paper's presentation order.
var AllMethods = []Method{MethodRTree, MethodIIO, MethodIR2, MethodMIR2}

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case MethodRTree:
		return "R-Tree"
	case MethodIIO:
		return "IIO"
	case MethodIR2:
		return "IR2-Tree"
	case MethodMIR2:
		return "MIR2-Tree"
	case MethodSavePerOp:
		return "Save/op"
	case MethodWALGroup:
		return "WAL"
	case MethodReplSnapshot:
		return "Snapshot"
	case MethodReplShip:
		return "LogShip"
	case MethodFenceWAL:
		return "Fence+WAL"
	case MethodSKQLPlanner:
		return "Planner"
	case MethodSKQLIR2:
		return "ForceIR2"
	case MethodSKQLIIO:
		return "ForceIIO"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// BuildConfig describes one experimental environment.
type BuildConfig struct {
	// Spec is the dataset to generate.
	Spec dataset.Spec
	// SigBytes is the leaf signature length (the paper uses 189 for Hotels
	// and 8 for Restaurants).
	SigBytes int
	// MaxEntries overrides node capacity (0 derives ≈102 from 4 KB blocks).
	MaxEntries int
	// Methods selects which structures to build; nil means all four.
	Methods []Method
}

// Env bundles a generated dataset with its index structures and their
// devices. Every structure has its own disk, so per-structure sizes
// (Table 2) and per-query I/O attribution are exact.
type Env struct {
	Cfg     BuildConfig
	Stats   *dataset.Stats
	Store   *objstore.Store
	ObjDisk storage.Device

	RTree     *core.RTreeBaseline
	RTreeDisk storage.Device
	IIO       *invindex.Index
	IIODisk   storage.Device
	IR2       *core.IR2Tree
	IR2Disk   storage.Device
	MIR2      *core.IR2Tree
	MIR2Disk  storage.Device

	wordsByFreq []string
}

// has reports whether the environment was built with method m.
func (e *Env) has(m Method) bool {
	switch m {
	case MethodRTree:
		return e.RTree != nil
	case MethodIIO:
		return e.IIO != nil
	case MethodIR2:
		return e.IR2 != nil
	case MethodMIR2:
		return e.MIR2 != nil
	}
	return false
}

// BuildEnv generates the dataset and constructs the selected structures.
func BuildEnv(cfg BuildConfig) (*Env, error) {
	if cfg.SigBytes <= 0 {
		return nil, fmt.Errorf("bench: SigBytes %d", cfg.SigBytes)
	}
	methods := cfg.Methods
	if methods == nil {
		methods = AllMethods
	}
	newDev := func() storage.Device { return storage.NewDisk(storage.DefaultBlockSize) }
	e := &Env{Cfg: cfg, ObjDisk: newDev()}
	e.Store = objstore.New(e.ObjDisk)
	stats, err := dataset.Generate(cfg.Spec, e.Store)
	if err != nil {
		return nil, err
	}
	e.Stats = stats
	e.wordsByFreq = stats.WordsByFreq()

	leaf := e.leafConfig()
	for _, m := range methods {
		switch m {
		case MethodRTree:
			e.RTreeDisk = newDev()
			e.RTree, err = core.NewRTreeBaseline(e.RTreeDisk, e.Store, cfg.MaxEntries)
			if err == nil {
				err = e.RTree.Build()
			}
		case MethodIIO:
			e.IIODisk = newDev()
			e.IIO = invindex.New(e.IIODisk)
			err = e.Store.Scan(func(o objstore.Object, p objstore.Ptr) error {
				e.IIO.AddDocument(uint64(p), o.Text)
				return nil
			})
			if err == nil {
				err = e.IIO.Build()
			}
		case MethodIR2:
			e.IR2Disk = newDev()
			e.IR2, err = core.New(e.IR2Disk, e.Store, core.Options{
				LeafSignature: leaf,
				MaxEntries:    cfg.MaxEntries,
			})
			if err == nil {
				err = e.IR2.Build()
			}
		case MethodMIR2:
			e.MIR2Disk = newDev()
			e.MIR2, err = core.New(e.MIR2Disk, e.Store, core.Options{
				LeafSignature:     leaf,
				MaxEntries:        cfg.MaxEntries,
				Multilevel:        true,
				AvgWordsPerObject: stats.AvgUniqueWords,
				VocabSize:         stats.VocabUsed,
			})
			if err == nil {
				err = e.MIR2.Build()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("bench: build %s: %w", m, err)
		}
	}
	return e, nil
}

// Query is one distance-first top-k spatial keyword query of a workload.
type Query struct {
	K        int
	P        geo.Point
	Keywords []string
}

// MakeQueries builds a seeded workload of n queries: each query point is a
// jittered copy of a random object's location (queries follow the data
// distribution, as in location-based services), and each keyword set draws
// numKeywords distinct words from the *moderately selective* band of the
// vocabulary — words appearing in roughly 1%-20% of objects. That is the
// yellow-pages regime the paper's figures imply: conjunctions usually have
// answers, but neither trivially (keywords in every object, where the
// R-Tree baseline would excel) nor vanishingly (keywords in none, where IIO
// would — both edge regimes have their own sweep, Selectivity).
func (e *Env) MakeQueries(n, k, numKeywords int, seed int64) ([]Query, error) {
	rng := rand.New(rand.NewSource(seed))
	band := e.selectivityBand(numKeywords * 4)
	queries := make([]Query, n)
	for i := range queries {
		obj, err := e.Store.GetByID(objstore.ID(rng.Intn(e.Store.NumObjects())))
		if err != nil {
			return nil, err
		}
		p := geo.NewPoint(obj.Point[0]+rng.NormFloat64()*50, obj.Point[1]+rng.NormFloat64()*50)
		kw := make([]string, 0, numKeywords)
		seen := make(map[string]bool, numKeywords)
		for len(kw) < numKeywords {
			w := band[rng.Intn(len(band))]
			if !seen[w] {
				seen[w] = true
				kw = append(kw, w)
			}
		}
		queries[i] = Query{K: k, P: p, Keywords: kw}
	}
	return queries, nil
}

// selectivityBand returns the words with document frequency between ~1% and
// ~20% of the corpus, widened outward (commoner first) until it holds at
// least minWords candidates.
func (e *Env) selectivityBand(minWords int) []string {
	if minWords < 1 {
		minWords = 1
	}
	nObj := e.Store.NumObjects()
	lo, hi := nObj/100, nObj/5
	if lo < 2 {
		lo = 2
	}
	var band []string
	for _, w := range e.wordsByFreq { // descending df
		df := e.Stats.DocFreq[w]
		if df > hi {
			continue
		}
		if df < lo && len(band) >= minWords {
			break
		}
		band = append(band, w)
	}
	if len(band) < minWords {
		// Tiny corpora: fall back to the most frequent words.
		band = e.wordsByFreq
		if len(band) > minWords*4 {
			band = band[:minWords*4]
		}
	}
	return band
}

// KeywordsAtRank returns numKeywords consecutive vocabulary words starting
// at the given frequency rank — the selectivity-sweep workloads (E-X2) use
// it to ask "what if the query words are this common?".
func (e *Env) KeywordsAtRank(rank, numKeywords int) []string {
	if rank < 0 {
		rank = 0
	}
	if rank+numKeywords > len(e.wordsByFreq) {
		rank = len(e.wordsByFreq) - numKeywords
		if rank < 0 {
			rank = 0
		}
	}
	out := make([]string, 0, numKeywords)
	for i := rank; i < len(e.wordsByFreq) && len(out) < numKeywords; i++ {
		out = append(out, e.wordsByFreq[i])
	}
	return out
}

// Measurement aggregates the per-query metrics of one (method, workload)
// cell: the numbers behind one bar/point of the paper's figures.
type Measurement struct {
	Method     Method
	Queries    int
	AvgResults float64

	// Disk accesses per query, split as in Figures 9b/12b.
	AvgRandom     float64
	AvgSequential float64

	// AvgObjects is objects loaded per query (Figures 11b/14b).
	AvgObjects float64

	// AvgDiskTime is the modeled disk time per query under the cost model;
	// AvgCPUTime is measured Go compute time per query. Their sum plays the
	// role of the paper's execution time.
	AvgDiskTime time.Duration
	AvgCPUTime  time.Duration

	// DiskTimeHist is the distribution of per-query modeled disk time in
	// seconds. Block counts are seed-deterministic, so unlike CPU time this
	// histogram is reproducible across hosts — the benchmark-regression
	// check in CI compares it between runs.
	DiskTimeHist obs.HistogramSnapshot
}

// TotalTime returns modeled disk time plus measured CPU time — the
// "execution time" series of the figures.
func (m Measurement) TotalTime() time.Duration { return m.AvgDiskTime + m.AvgCPUTime }

// methodDisks returns the devices whose I/O a method's queries touch: its
// index disk plus the shared object file disk.
func (e *Env) methodDisks(m Method) []storage.Device {
	switch m {
	case MethodRTree:
		return []storage.Device{e.RTreeDisk, e.ObjDisk}
	case MethodIIO:
		return []storage.Device{e.IIODisk, e.ObjDisk}
	case MethodIR2:
		return []storage.Device{e.IR2Disk, e.ObjDisk}
	case MethodMIR2:
		return []storage.Device{e.MIR2Disk, e.ObjDisk}
	}
	return nil
}

// RunQuery executes one query with the given method and returns the number
// of results. (Object-access counting relies on core's and invindex's
// search stats.)
func (e *Env) RunQuery(m Method, q Query) (results, objectsLoaded int, err error) {
	switch m {
	case MethodRTree:
		res, stats, err := e.RTree.TopK(q.K, q.P, q.Keywords)
		return len(res), stats.ObjectsLoaded, err
	case MethodIIO:
		res, stats, err := invindex.TopK(e.IIO, e.Store, q.K, q.P, q.Keywords)
		return len(res), stats.ObjectsLoaded, err
	case MethodIR2:
		res, stats, err := e.IR2.TopK(q.K, q.P, q.Keywords)
		return len(res), stats.ObjectsLoaded, err
	case MethodMIR2:
		res, stats, err := e.MIR2.TopK(q.K, q.P, q.Keywords)
		return len(res), stats.ObjectsLoaded, err
	}
	return 0, 0, fmt.Errorf("bench: unknown method %d", m)
}

// Measure runs a workload under one method, metering disk accesses against
// the cost model and timing the in-memory computation.
func (e *Env) Measure(m Method, queries []Query, cm storage.CostModel) (Measurement, error) {
	out := Measurement{Method: m, Queries: len(queries)}
	if !e.has(m) {
		return out, fmt.Errorf("bench: method %s not built", m)
	}
	if len(queries) == 0 {
		return out, nil
	}
	disks := e.methodDisks(m)
	var io storage.Stats
	var cpu time.Duration
	var results, objects int
	hist := obs.NewHistogram(obs.LatencyBuckets())
	for _, q := range queries {
		meters := make([]*storage.Meter, len(disks))
		for i, d := range disks {
			// Queries start cold: the head position from the previous
			// query must not turn this query's first access sequential.
			d.ResetStats()
			meters[i] = storage.StartMeter(d)
		}
		//skvet:ignore determinism CPU time is wall-clock by definition; it is reported apart from modeled disk time
		start := time.Now()
		n, objs, err := e.RunQuery(m, q)
		//skvet:ignore determinism CPU time is wall-clock by definition; it is reported apart from modeled disk time
		cpu += time.Since(start)
		if err != nil {
			return out, err
		}
		results += n
		objects += objs
		var qio storage.Stats
		for _, mt := range meters {
			qio = qio.Add(mt.Stop())
		}
		io = io.Add(qio)
		hist.Observe(cm.Time(qio).Seconds())
	}
	q := float64(len(queries))
	out.DiskTimeHist = hist.Snapshot()
	out.AvgResults = float64(results) / q
	out.AvgObjects = float64(objects) / q
	out.AvgRandom = float64(io.Random()) / q
	out.AvgSequential = float64(io.Sequential()) / q
	out.AvgDiskTime = cm.Time(io) / time.Duration(len(queries))
	out.AvgCPUTime = cpu / time.Duration(len(queries))
	return out, nil
}
