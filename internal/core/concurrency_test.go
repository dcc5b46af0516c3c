package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/irscore"
)

// TestConcurrentReaders hammers one IR²-Tree with parallel distance-first,
// area, and ranked queries; all must return brute-force-correct results.
// (Writers require external exclusion, per the package contract; readers
// must be safe together.)
func TestConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	rows := randomRows(rng, 300)
	f := buildFixture(t, rows, 4, 8)
	scorer := irscore.NewScorer(f.vocab.NumDocs(), f.vocab.DocFreq)

	const workers = 8
	const iterations = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iterations; i++ {
				p := geo.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
				kw := []string{"pool"}
				if i%2 == 1 {
					kw = []string{"internet", "spa"}
				}
				switch i % 3 {
				case 0:
					got, _, err := f.ir2.TopK(5, p, kw)
					if err != nil {
						errs <- err
						return
					}
					want := bruteTopK(f.objects, 5, p, kw)
					if fmt.Sprint(resultIDs(got)) != fmt.Sprint(objIDs(want)) {
						errs <- fmt.Errorf("worker %d iter %d: %v != %v", seed, i, resultIDs(got), objIDs(want))
						return
					}
				case 1:
					area := geo.NewRect(p, geo.NewPoint(p[0]+100, p[1]+100))
					if _, _, err := topKArea(f.sir2, f.rows, 5, area, kw); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, _, err := topKRanked(f.sir2, f.rows, 5, p, kw, GeneralOptions{
						Scorer: scorer,
					}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentReadersAcrossTrees runs readers against the IR² and MIR²
// trees (which share the object store device) simultaneously.
func TestConcurrentReadersAcrossTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	rows := randomRows(rng, 200)
	f := buildFixture(t, rows, 4, 8)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, tree := range []*IR2Tree{f.ir2, f.mir2} {
		wg.Add(1)
		go func(tr *IR2Tree) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				p := geo.NewPoint(float64(i*30), float64(i*20))
				got, _, err := tr.TopK(3, p, []string{"gym"})
				if err != nil {
					errs <- err
					return
				}
				want := bruteTopK(f.objects, 3, p, []string{"gym"})
				if fmt.Sprint(resultIDs(got)) != fmt.Sprint(objIDs(want)) {
					errs <- fmt.Errorf("iter %d diverged", i)
					return
				}
			}
		}(tree)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
