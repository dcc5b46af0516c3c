package bench

import (
	"encoding/csv"
	"fmt"
	"io"

	"spatialkeyword/internal/core"
	"spatialkeyword/internal/storage"
)

// WriteCSV renders the table as CSV (header row then data rows), for
// downstream plotting.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CapacityAblation sweeps the R-Tree node capacity (fanout), an implicit
// design choice in the paper (113 children from the 4 KB block). Small
// fanouts make deep trees with more random node reads; very large fanouts
// make shallow trees whose big nodes cost many sequential block reads each.
func CapacityAblation(base BuildConfig, capacities []int, k, numKeywords, nQueries int, seed int64, cm storage.CostModel) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Node-capacity ablation — %s dataset, k=%d, %d keywords (extension)",
			base.Spec.Name, k, numKeywords),
		Columns: append([]string{"height"}, measurementColumns...),
		Notes: []string{
			"capacity 0 = derived from the block size (the paper's setting)",
		},
	}
	for _, capacity := range capacities {
		cfg := base
		cfg.MaxEntries = capacity
		cfg.Methods = []Method{MethodIR2, MethodMIR2}
		env, err := BuildEnv(cfg)
		if err != nil {
			return nil, err
		}
		queries, err := env.MakeQueries(nQueries, k, numKeywords, seed)
		if err != nil {
			return nil, err
		}
		for _, m := range cfg.Methods {
			meas, err := env.Measure(m, queries, cm)
			if err != nil {
				return nil, err
			}
			row := t.measurementRow(fmt.Sprintf("cap=%d", capacity), meas)
			var h int
			if m == MethodIR2 {
				h = env.IR2.RTree().Height()
			} else {
				h = env.MIR2.RTree().Height()
			}
			t.Rows = append(t.Rows, append([]string{fmt.Sprintf("%d", h)}, row...))
		}
	}
	return t, nil
}

// BulkBuildAblation contrasts the paper's insert-based construction with
// STR bulk loading (extension): total build I/O and the query cost of the
// resulting trees.
func BulkBuildAblation(base BuildConfig, k, numKeywords, nQueries int, seed int64, cm storage.CostModel) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Construction ablation — %s dataset (extension: repeated Insert vs STR bulk load)",
			base.Spec.Name),
		Columns: []string{"construction", "method", "buildRandBlk", "buildSeqBlk", "nodes", "queryTime", "queryRandBlk"},
	}
	for _, bulk := range []bool{false, true} {
		cfg := base
		cfg.Methods = []Method{MethodIR2}
		label := "insert"
		if bulk {
			label = "str-bulk"
		}
		var env *Env
		var err error
		if bulk {
			env, err = buildEnvBulk(cfg)
		} else {
			env, err = BuildEnv(cfg)
		}
		if err != nil {
			return nil, err
		}
		buildIO := env.IR2Disk.Stats()
		queries, err := env.MakeQueries(nQueries, k, numKeywords, seed)
		if err != nil {
			return nil, err
		}
		meas, err := env.Measure(MethodIR2, queries, cm)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			label, MethodIR2.String(),
			fmt.Sprintf("%d", buildIO.Random()),
			fmt.Sprintf("%d", buildIO.Sequential()),
			fmt.Sprintf("%d", env.IR2.RTree().NumNodes()),
			fmtDur(meas.TotalTime()),
			fmtF(meas.AvgRandom),
		})
	}
	return t, nil
}

// buildEnvBulk is BuildEnv with the IR²-Tree constructed by STR bulk
// loading instead of repeated inserts.
func buildEnvBulk(cfg BuildConfig) (*Env, error) {
	only := cfg
	only.Methods = []Method{} // dataset only
	env, err := BuildEnv(only)
	if err != nil {
		return nil, err
	}
	env.Cfg = cfg
	env.IR2Disk = storage.NewDisk(storage.DefaultBlockSize)
	tree, err := core.New(env.IR2Disk, env.Store, core.Options{
		LeafSignature: env.leafConfig(),
		MaxEntries:    cfg.MaxEntries,
	})
	if err != nil {
		return nil, err
	}
	if err := tree.BuildBulk(); err != nil {
		return nil, err
	}
	env.IR2 = tree
	return env, nil
}
