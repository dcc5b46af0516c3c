// Command skquery answers top-k spatial keyword queries over a TSV dataset
// (as written by skload) or a freshly generated synthetic dataset, from the
// command line or an interactive prompt.
//
// Usage:
//
//	skquery [flags] [keyword ...]
//
//	-input     TSV file with "lat<TAB>lon<TAB>text" rows (from skload -out)
//	-generate  hotels | restaurants — generate instead of loading
//	-scale     scale for -generate (default 0.005)
//	-sig       leaf signature bytes (default 64)
//	-point     query point "lat,lon" (default "0,0")
//	-k         number of results (default 5)
//	-ranked    use the general ranked query instead of distance-first
//	-trace     print the traversal trace (paper Example 1/3 style)
//	-i         interactive mode: read "lat lon k keyword..." lines from stdin
//	-ql        SKQL mode: the arguments form one declarative statement
//	           (quote it), planned by the cost-based router; with -i, read
//	           one statement per stdin line instead. EXPLAIN / EXPLAIN
//	           ANALYZE print the plan with estimated vs actual block reads.
//
// Examples:
//
//	go run ./cmd/skquery -generate restaurants -point 5000,5000 -k 3 pizza
//	go run ./cmd/skload -dataset hotels -scale 0.005 -out /tmp/h.tsv
//	go run ./cmd/skquery -input /tmp/h.tsv -i
//	go run ./cmd/skquery -generate restaurants -ql \
//	  'EXPLAIN ANALYZE SELECT TOP 3 NEAR (5000, 5000) MATCH pizza AND NOT vegan'
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/dataset"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/skql"
	"spatialkeyword/internal/storage"
)

func main() {
	var (
		input       = flag.String("input", "", "TSV dataset (lat, lon, text)")
		generate    = flag.String("generate", "", "generate hotels or restaurants")
		scale       = flag.Float64("scale", 0.005, "scale for -generate")
		sig         = flag.Int("sig", 64, "leaf signature bytes")
		point       = flag.String("point", "0,0", "query point lat,lon")
		k           = flag.Int("k", 5, "number of results")
		ranked      = flag.Bool("ranked", false, "general ranked query")
		trace       = flag.Bool("trace", false, "print the index traversal trace (distance-first only)")
		interactive = flag.Bool("i", false, "interactive mode")
		ql          = flag.Bool("ql", false, "SKQL mode: arguments (or each -i line) form one declarative statement")
	)
	flag.Parse()
	if err := run(*input, *generate, *scale, *sig, *point, *k, *ranked, *trace, *interactive, *ql, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "skquery:", err)
		os.Exit(1)
	}
}

func run(input, generate string, scale float64, sig int, pointStr string, k int, ranked, trace, interactive, ql bool, keywords []string) error {
	eng, err := spatialkeyword.NewEngine(spatialkeyword.Config{SignatureBytes: sig})
	if err != nil {
		return err
	}

	start := time.Now()
	var loaded int
	switch {
	case input != "":
		loaded, err = loadTSV(eng, input)
	case generate != "":
		loaded, err = loadGenerated(eng, generate, scale)
	default:
		return fmt.Errorf("provide -input or -generate")
	}
	if err != nil {
		return err
	}
	fmt.Printf("indexed %d objects in %v\n", loaded, time.Since(start).Round(time.Millisecond))

	if ql {
		cat := skql.NewCatalog(eng)
		if interactive {
			return replSKQL(cat)
		}
		if len(keywords) == 0 {
			return fmt.Errorf("-ql needs a statement, e.g. 'SELECT TOP 5 NEAR (0, 0) MATCH pizza'")
		}
		return runSKQL(os.Stdout, cat, strings.Join(keywords, " "))
	}
	if interactive {
		return repl(eng, ranked)
	}
	p, err := parsePoint(pointStr)
	if err != nil {
		return err
	}
	if trace {
		return explain(eng, p, k, keywords)
	}
	return query(eng, p, k, keywords, ranked)
}

// explain runs the query as EXPLAIN ANALYZE on the IR²-Tree path, whose
// report folds in the traversal trace step by step.
func explain(eng *spatialkeyword.Engine, p []float64, k int, keywords []string) error {
	q := &skql.Query{Explain: true, Analyze: true, Proj: skql.ProjTop, K: k, Near: p, Force: skql.PathIR2}
	if len(keywords) > 0 {
		kids := make([]skql.Expr, len(keywords))
		for i, w := range keywords {
			kids[i] = skql.Term{Word: w}
		}
		q.Match = skql.And{Kids: kids}
	}
	return runStatement(os.Stdout, skql.NewCatalog(eng), q)
}

func loadTSV(eng *spatialkeyword.Engine, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), "\t", 3)
		if len(parts) != 3 {
			return n, fmt.Errorf("line %d: want lat<TAB>lon<TAB>text", n+1)
		}
		lat, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return n, fmt.Errorf("line %d: bad lat: %w", n+1, err)
		}
		lon, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return n, fmt.Errorf("line %d: bad lon: %w", n+1, err)
		}
		if _, err := eng.Add([]float64{lat, lon}, parts[2]); err != nil {
			return n, err
		}
		n++
	}
	return n, sc.Err()
}

func loadGenerated(eng *spatialkeyword.Engine, name string, scale float64) (int, error) {
	var spec dataset.Spec
	switch name {
	case "hotels":
		spec = dataset.Hotels(scale)
	case "restaurants":
		spec = dataset.Restaurants(scale)
	default:
		return 0, fmt.Errorf("unknown dataset %q", name)
	}
	store := objstore.New(storage.NewDisk(storage.DefaultBlockSize))
	if _, err := dataset.Generate(spec, store); err != nil {
		return 0, err
	}
	n := 0
	err := store.Scan(func(o objstore.Object, _ objstore.Ptr) error {
		_, err := eng.Add(o.Point, o.Text)
		n++
		return err
	})
	return n, err
}

func parsePoint(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return nil, fmt.Errorf("point %q: want lat,lon", s)
	}
	p := make([]float64, 2)
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("point %q: %w", s, err)
		}
		p[i] = v
	}
	return p, nil
}

func query(eng *spatialkeyword.Engine, p []float64, k int, keywords []string, ranked bool) error {
	start := time.Now()
	if ranked {
		results, err := eng.TopKRanked(k, p, keywords...)
		if err != nil {
			return err
		}
		fmt.Printf("%d ranked results in %v:\n", len(results), time.Since(start).Round(time.Microsecond))
		for i, r := range results {
			fmt.Printf("%2d. score=%.4f dist=%.1f ir=%.3f  #%d %s\n",
				i+1, r.Score, r.Dist, r.IRScore, r.Object.ID, snippet(r.Object.Text))
		}
		return nil
	}
	results, stats, err := eng.TopKWithStats(k, p, keywords...)
	if err != nil {
		return err
	}
	fmt.Printf("%d results in %v (nodes=%d objects=%d falsePos=%d io=%d+%d):\n",
		len(results), time.Since(start).Round(time.Microsecond),
		stats.NodesLoaded, stats.ObjectsLoaded, stats.FalsePositives,
		stats.BlocksRandom, stats.BlocksSequential)
	for i, r := range results {
		fmt.Printf("%2d. dist=%.1f  #%d %s\n", i+1, r.Dist, r.Object.ID, snippet(r.Object.Text))
	}
	return nil
}

func snippet(s string) string {
	if len(s) > 72 {
		return s[:69] + "..."
	}
	return s
}

// runSKQL executes one SKQL statement and prints the answer (and, for
// EXPLAIN forms, the plan report).
func runSKQL(w io.Writer, cat *skql.Catalog, src string) error {
	q, err := skql.Parse(src)
	if err != nil {
		return err
	}
	return runStatement(w, cat, q)
}

// runStatement executes a parsed statement and prints its report and answer.
func runStatement(w io.Writer, cat *skql.Catalog, q *skql.Query) error {
	start := time.Now()
	rs, err := cat.Run(q)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Microsecond)
	for _, line := range rs.Explain {
		fmt.Fprintln(w, line)
	}
	if q.Explain && !q.Analyze {
		return nil // plan only, nothing executed
	}
	if len(rs.Explain) > 0 {
		fmt.Fprintln(w)
	}
	switch rs.Proj {
	case skql.ProjCount:
		fmt.Fprintf(w, "count: %d (%v)\n", rs.Count, elapsed)
	case skql.ProjRanked:
		fmt.Fprintf(w, "%d ranked results in %v:\n", len(rs.Ranked), elapsed)
		for i, r := range rs.Ranked {
			fmt.Fprintf(w, "%2d. score=%.4f dist=%.1f ir=%.3f  #%d %s\n",
				i+1, r.Score, r.Dist, r.IRScore, r.Object.ID, snippet(r.Object.Text))
		}
	default:
		fmt.Fprintf(w, "%d results in %v:\n", len(rs.Results), elapsed)
		for i, r := range rs.Results {
			fmt.Fprintf(w, "%2d. dist=%.1f  #%d %s\n", i+1, r.Dist, r.Object.ID, snippet(r.Object.Text))
		}
	}
	return nil
}

// replSKQL reads one SKQL statement per line.
func replSKQL(cat *skql.Catalog) error {
	fmt.Println(`enter SKQL statements, e.g. SELECT TOP 5 NEAR (0, 0) MATCH pizza   (ctrl-D to exit)`)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("skql> ")
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if err := runSKQL(os.Stdout, cat, line); err != nil {
			fmt.Println("error:", err)
		}
	}
}

func repl(eng *spatialkeyword.Engine, ranked bool) error {
	fmt.Println("enter queries as: lat lon k keyword [keyword ...]   (ctrl-D to exit)")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 {
			fmt.Println("need: lat lon k keyword...")
			continue
		}
		lat, err1 := strconv.ParseFloat(fields[0], 64)
		lon, err2 := strconv.ParseFloat(fields[1], 64)
		k, err3 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || err3 != nil {
			fmt.Println("need: lat lon k keyword...")
			continue
		}
		if err := query(eng, []float64{lat, lon}, k, fields[3:], ranked); err != nil {
			fmt.Println("error:", err)
		}
	}
}
