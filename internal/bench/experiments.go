package bench

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"spatialkeyword/internal/core"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
)

// Table is a rendered experiment result: one per paper table or figure.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string

	// Cells carries the raw measurements behind the rendered rows (one per
	// measurementRow call), so machine-readable reports don't re-parse the
	// formatted strings. Hand-built rows (Table1, Maintenance) have none.
	Cells []Cell
}

// Cell is one raw measurement of a sweep: the number behind one table row.
type Cell struct {
	Sweep string
	Meas  Measurement
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "\n== %s ==\n", t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, c := range t.Columns {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, c)
	}
	fmt.Fprintln(tw)
	for _, row := range t.Rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, cell)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

func fmtF(v float64) string { return fmt.Sprintf("%.1f", v) }

// measurementRow renders one Measurement as a table row prefixed with the
// sweep value, and retains the raw measurement in t.Cells.
func (t *Table) measurementRow(sweep string, m Measurement) []string {
	t.Cells = append(t.Cells, Cell{Sweep: sweep, Meas: m})
	return []string{
		sweep, m.Method.String(),
		fmtDur(m.TotalTime()), fmtDur(m.AvgDiskTime), fmtDur(m.AvgCPUTime),
		fmtF(m.AvgRandom), fmtF(m.AvgSequential),
		fmtF(m.AvgObjects), fmtF(m.AvgResults),
	}
}

var measurementColumns = []string{
	"sweep", "method", "time", "disk", "cpu", "randBlk", "seqBlk", "objAcc", "results",
}

// VaryK reproduces Figures 9 (Hotels) and 12 (Restaurants): fixed keyword
// count, sweeping the number of requested results k, reporting execution
// time and random/sequential block accesses for all four methods.
func VaryK(e *Env, ks []int, numKeywords, nQueries int, seed int64, cm storage.CostModel) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Vary k (top-k) — %s dataset, %d keywords, sig %dB (paper Figs 9/12)",
			e.Stats.Name, numKeywords, e.Cfg.SigBytes),
		Columns: measurementColumns,
		Notes: []string{
			"expect: IR2/MIR2 beat R-Tree at every k; IIO flat in k;",
			"MIR2 fewer random but more sequential accesses than IR2",
		},
	}
	for _, k := range ks {
		queries, err := e.MakeQueries(nQueries, k, numKeywords, seed)
		if err != nil {
			return nil, err
		}
		for _, m := range AllMethods {
			if !e.has(m) {
				continue
			}
			meas, err := e.Measure(m, queries, cm)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, t.measurementRow(fmt.Sprintf("k=%d", k), meas))
		}
	}
	return t, nil
}

// VaryKeywords reproduces Figures 10 (Hotels) and 13 (Restaurants): fixed
// k, sweeping the number of query keywords.
func VaryKeywords(e *Env, keywordCounts []int, k, nQueries int, seed int64, cm storage.CostModel) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Vary #keywords — %s dataset, k=%d, sig %dB (paper Figs 10/13)",
			e.Stats.Name, k, e.Cfg.SigBytes),
		Columns: measurementColumns,
		Notes: []string{
			"expect: IIO improves with more keywords (shorter intersection);",
			"R-Tree degrades (rarer conjunctions mean more useless objects)",
		},
	}
	for _, m := range keywordCounts {
		queries, err := e.MakeQueries(nQueries, k, m, seed)
		if err != nil {
			return nil, err
		}
		for _, method := range AllMethods {
			if !e.has(method) {
				continue
			}
			meas, err := e.Measure(method, queries, cm)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, t.measurementRow(fmt.Sprintf("m=%d", m), meas))
		}
	}
	return t, nil
}

// VarySigLen reproduces Figures 11 (Hotels) and 14 (Restaurants): fixed k
// and keyword count, sweeping the leaf signature length. R-Tree and IIO are
// insensitive to signature length, so they are measured once from the base
// environment; the IR²- and MIR²-Trees are rebuilt per length.
func VarySigLen(e *Env, lengths []int, k, numKeywords, nQueries int, seed int64, cm storage.CostModel) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Vary signature length — %s dataset, k=%d, %d keywords (paper Figs 11/14)",
			e.Stats.Name, k, numKeywords),
		Columns: append(measurementColumns, "treeMB"),
		Notes: []string{
			"expect: longer signatures cut object accesses (fewer false positives)",
			"but grow the tree; no single best length (paper §6.B)",
		},
	}
	queries, err := e.MakeQueries(nQueries, k, numKeywords, seed)
	if err != nil {
		return nil, err
	}
	// Baselines once.
	for _, m := range []Method{MethodRTree, MethodIIO} {
		if !e.has(m) {
			continue
		}
		meas, err := e.Measure(m, queries, cm)
		if err != nil {
			return nil, err
		}
		row := t.measurementRow("any", meas)
		var sz float64
		if m == MethodRTree {
			sz = e.RTree.SizeMB()
		} else {
			sz = e.IIO.SizeMB()
		}
		t.Rows = append(t.Rows, append(row, fmt.Sprintf("%.1f", sz)))
	}
	for _, length := range lengths {
		sub, err := e.rebuildSigTrees(length)
		if err != nil {
			return nil, err
		}
		for _, m := range []Method{MethodIR2, MethodMIR2} {
			if !sub.has(m) {
				continue
			}
			meas, err := sub.Measure(m, queries, cm)
			if err != nil {
				return nil, err
			}
			row := t.measurementRow(fmt.Sprintf("sig=%dB", length), meas)
			var sz float64
			if m == MethodIR2 {
				sz = sub.IR2.SizeMB()
			} else {
				sz = sub.MIR2.SizeMB()
			}
			t.Rows = append(t.Rows, append(row, fmt.Sprintf("%.1f", sz)))
		}
	}
	return t, nil
}

// rebuildSigTrees clones the environment with IR²/MIR² rebuilt at a new
// leaf signature length, sharing the object store and baselines.
func (e *Env) rebuildSigTrees(sigBytes int) (*Env, error) {
	sub := *e
	sub.Cfg.SigBytes = sigBytes
	leaf := e.leafConfig()
	leaf.LengthBytes = sigBytes
	var err error
	if e.has(MethodIR2) {
		sub.IR2Disk = storage.NewDisk(storage.DefaultBlockSize)
		sub.IR2, err = core.New(sub.IR2Disk, e.Store, core.Options{
			LeafSignature: leaf,
			MaxEntries:    e.Cfg.MaxEntries,
		})
		if err == nil {
			err = sub.IR2.Build()
		}
		if err != nil {
			return nil, err
		}
	}
	if e.has(MethodMIR2) {
		sub.MIR2Disk = storage.NewDisk(storage.DefaultBlockSize)
		sub.MIR2, err = core.New(sub.MIR2Disk, e.Store, core.Options{
			LeafSignature:     leaf,
			MaxEntries:        e.Cfg.MaxEntries,
			Multilevel:        true,
			AvgWordsPerObject: e.Stats.AvgUniqueWords,
			VocabSize:         e.Stats.VocabUsed,
		})
		if err == nil {
			err = sub.MIR2.Build()
		}
		if err != nil {
			return nil, err
		}
	}
	return &sub, nil
}

// leafConfig is the leaf signature layout: SigBytes bytes, the default k.
func (e *Env) leafConfig() sigfile.Config {
	return sigfile.Config{LengthBytes: e.Cfg.SigBytes, BitsPerWord: sigfile.DefaultBitsPerWord}
}

// Table1 reproduces the paper's Table 1 (dataset details) from generation
// statistics.
func Table1(all ...*Env) *Table {
	t := &Table{
		Title:   "Dataset details (paper Table 1)",
		Columns: []string{"dataset", "size(MB)", "objects", "avgUniqueWords", "vocab", "blocks/obj"},
		Notes: []string{
			"synthetic stand-ins matched to the paper's measured statistics (see DESIGN.md)",
		},
	}
	for _, e := range all {
		s := e.Stats
		t.Rows = append(t.Rows, []string{
			s.Name,
			fmt.Sprintf("%.1f", s.SizeMB),
			fmt.Sprintf("%d", s.Objects),
			fmt.Sprintf("%.0f", s.AvgUniqueWords),
			fmt.Sprintf("%d", s.VocabUsed),
			fmt.Sprintf("%.2f", s.AvgBlocksPerObj),
		})
	}
	return t
}

// Table2 reproduces the paper's Table 2: total size of each index structure.
func Table2(all ...*Env) *Table {
	t := &Table{
		Title:   "Sizes (MB) of indexing structures (paper Table 2)",
		Columns: []string{"dataset", "IIO", "R-Tree", "IR2-Tree", "MIR2-Tree"},
		Notes: []string{
			"expect: IR2 > R-Tree (extra signature blocks); MIR2 > IR2 (longer upper levels);",
			"IIO small when vocabulary per object is small (restaurants)",
		},
	}
	for _, e := range all {
		row := []string{e.Stats.Name, "-", "-", "-", "-"}
		if e.has(MethodIIO) {
			row[1] = fmt.Sprintf("%.1f", e.IIO.SizeMB())
		}
		if e.has(MethodRTree) {
			row[2] = fmt.Sprintf("%.1f", e.RTree.SizeMB())
		}
		if e.has(MethodIR2) {
			row[3] = fmt.Sprintf("%.1f", e.IR2.SizeMB())
		}
		if e.has(MethodMIR2) {
			row[4] = fmt.Sprintf("%.1f", e.MIR2.SizeMB())
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Maintenance quantifies the update-cost claim of Section 4: per-insert
// (and per-delete) I/O and time for the R-Tree, IR²-Tree, and MIR²-Tree.
// The MIR²-Tree recomputes ancestor signatures from all underlying objects,
// so its numbers should dwarf the others'.
func Maintenance(e *Env, batch int, seed int64, cm storage.CostModel) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Index maintenance — %s dataset, %d inserts + %d deletes (paper §4 claim)", e.Stats.Name, batch, batch),
		Columns: []string{"method", "op", "avgTime", "avgRandBlk", "avgSeqBlk"},
		Notes: []string{
			"expect: IR2 ≈ R-Tree (same complexity); MIR2 far more expensive",
			"IIO omitted: the paper's inverted index is rebuilt offline",
		},
	}
	rng := rand.New(rand.NewSource(seed))

	// Fresh objects to insert, appended to the shared store up front.
	type newObj struct {
		obj objstore.Object
		ptr objstore.Ptr
	}
	fresh := make([]newObj, batch)
	for i := range fresh {
		src, err := e.Store.GetByID(objstore.ID(rng.Intn(e.Store.NumObjects())))
		if err != nil {
			return nil, err
		}
		p := geo.NewPoint(src.Point[0]+rng.NormFloat64()*10, src.Point[1]+rng.NormFloat64()*10)
		_, ptr, err := e.Store.Append(p, src.Text)
		if err != nil {
			return nil, err
		}
		if err := e.Store.Sync(); err != nil {
			return nil, err
		}
		obj, err := e.Store.Get(ptr)
		if err != nil {
			return nil, err
		}
		fresh[i] = newObj{obj, ptr}
	}

	type target struct {
		method Method
		disk   storage.Device
		insert func(objstore.Object, objstore.Ptr) error
		delete func(geo.Point, objstore.Ptr) (bool, error)
	}
	var targets []target
	if e.has(MethodRTree) {
		targets = append(targets, target{MethodRTree, e.RTreeDisk, e.RTree.Insert, e.RTree.Delete})
	}
	if e.has(MethodIR2) {
		targets = append(targets, target{MethodIR2, e.IR2Disk, e.IR2.Insert, e.IR2.Delete})
	}
	if e.has(MethodMIR2) {
		targets = append(targets, target{MethodMIR2, e.MIR2Disk, e.MIR2.Insert, e.MIR2.Delete})
	}

	for _, tg := range targets {
		for _, op := range []string{"insert", "delete"} {
			var io storage.Stats
			var cpu time.Duration
			for _, f := range fresh {
				tg.disk.ResetStats()
				e.ObjDisk.ResetStats()
				m1 := storage.StartMeter(tg.disk)
				m2 := storage.StartMeter(e.ObjDisk)
				//skvet:ignore determinism CPU time is wall-clock by definition; it is reported apart from modeled disk time
				start := time.Now()
				var err error
				if op == "insert" {
					err = tg.insert(f.obj, f.ptr)
				} else {
					var ok bool
					ok, err = tg.delete(f.obj.Point, f.ptr)
					if err == nil && !ok {
						err = fmt.Errorf("bench: maintenance delete missed object %d", f.obj.ID)
					}
				}
				//skvet:ignore determinism CPU time is wall-clock by definition; it is reported apart from modeled disk time
				cpu += time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("bench: %s %s: %w", tg.method, op, err)
				}
				io = io.Add(m1.Stop()).Add(m2.Stop())
			}
			n := time.Duration(batch)
			t.Rows = append(t.Rows, []string{
				tg.method.String(), op,
				fmtDur(cm.Time(io)/n + cpu/n),
				fmtF(float64(io.Random()) / float64(batch)),
				fmtF(float64(io.Sequential()) / float64(batch)),
			})
		}
	}
	return t, nil
}

// Selectivity reproduces the Discussion of Section 6.B: IIO wins when query
// keywords are very rare; the R-Tree baseline catches up when keywords
// appear in almost every object. The sweep walks keyword frequency ranks
// from the most common words to the tail.
func Selectivity(e *Env, ranks []int, k, numKeywords, nQueries int, seed int64, cm storage.CostModel) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Keyword selectivity sweep — %s dataset, k=%d, %d keywords (paper §6.B discussion)",
			e.Stats.Name, k, numKeywords),
		Columns: append([]string{"docFreq"}, measurementColumns...),
		Notes: []string{
			"expect: IIO cost tracks posting length (cheap at the rare tail);",
			"R-Tree cost explodes as keywords get rarer; IR2/MIR2 robust throughout",
		},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, rank := range ranks {
		kw := e.KeywordsAtRank(rank, numKeywords)
		if len(kw) == 0 {
			continue
		}
		df := e.Stats.DocFreq[kw[0]]
		queries := make([]Query, nQueries)
		for i := range queries {
			obj, err := e.Store.GetByID(objstore.ID(rng.Intn(e.Store.NumObjects())))
			if err != nil {
				return nil, err
			}
			queries[i] = Query{K: k, P: obj.Point.Clone(), Keywords: kw}
		}
		for _, m := range AllMethods {
			if !e.has(m) {
				continue
			}
			meas, err := e.Measure(m, queries, cm)
			if err != nil {
				return nil, err
			}
			row := t.measurementRow(fmt.Sprintf("rank=%d", rank), meas)
			t.Rows = append(t.Rows, append([]string{fmt.Sprintf("%d", df)}, row...))
		}
	}
	return t, nil
}
