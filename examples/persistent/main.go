// Persistent: a durable search engine across "restarts". The paper's
// structures are disk-resident by design; this example exercises the
// library's durability surface — a file-backed engine that is built once,
// saved, closed, and reopened with its index intact — plus an EXPLAIN
// ANALYZE statement showing the IR²-Tree pruning on the reopened index.
//
//	go run ./examples/persistent
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/skql"
)

func main() {
	dir := filepath.Join(os.TempDir(), "spatialkeyword-demo")
	defer os.RemoveAll(dir)

	// ---- process one: build and save ----
	eng, err := spatialkeyword.NewDurableEngine(spatialkeyword.Config{
		SignatureBytes: 16,
		Stemming:       true, // "fishing" will match "fished", "fish", ...
	}, dir)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	activities := []string{"fishing charters", "kayak rentals", "diving lessons",
		"sunset cruises", "paddleboard tours", "sailing school"}
	for i := 0; i < 2000; i++ {
		pt := []float64{rng.Float64() * 100, rng.Float64() * 100}
		desc := fmt.Sprintf("marina %d: %s", i, activities[rng.Intn(len(activities))])
		if _, err := eng.Add(pt, desc); err != nil {
			log.Fatal(err)
		}
	}
	start := time.Now()
	if err := eng.Save(); err != nil {
		log.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	st := eng.Stats()
	fmt.Printf("built and saved %d objects to %s in %v (%.2f MB index)\n",
		st.Objects, dir, time.Since(start).Round(time.Millisecond), st.IndexMB)

	// ---- process two: reopen and query ----
	start = time.Now()
	reopened, err := spatialkeyword.OpenEngine(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	fmt.Printf("reopened in %v with %d objects\n\n",
		time.Since(start).Round(time.Millisecond), reopened.Stats().Objects)

	// A stemmed query: "fished" matches every "fishing charters" marina.
	results, err := reopened.TopK(3, []float64{50, 50}, "fished")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("nearest marinas matching 'fished' (stemming on):")
	for i, r := range results {
		fmt.Printf("  %d. %-38s %.1f away\n", i+1, r.Object.Text, r.Dist)
	}

	// EXPLAIN ANALYZE shows the IR²-Tree at work on the reopened index: the
	// plan, its estimate beside what the traversal really read, and the trace.
	q, err := skql.Parse("EXPLAIN ANALYZE SELECT TOP 1 NEAR (50, 50) MATCH sailing USING ir2")
	if err != nil {
		log.Fatal(err)
	}
	rs, err := skql.NewCatalog(reopened).Run(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop-1 'sailing', explained (the trace is paper Example 3 style):")
	for _, line := range rs.Explain {
		fmt.Println(" ", line)
	}
}
