package shard

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/irscore"
	"spatialkeyword/internal/skql"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// bruteModel answers the queries the flush tests check by brute force over
// every row added, indexed by global ID.
type bruteModel struct{ rows []spatialkeyword.Object }

func (m *bruteModel) dist(o spatialkeyword.Object, p []float64) float64 {
	return math.Hypot(o.Point[0]-p[0], o.Point[1]-p[1])
}

// topK is the distance-first answer, ties by ID.
func (m *bruteModel) topK(k int, p []float64, kw string) []uint64 {
	var cands []spatialkeyword.Object
	for _, o := range m.rows {
		if textutil.ContainsAll(o.Text, []string{kw}) {
			cands = append(cands, o)
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return m.dist(cands[a], p) < m.dist(cands[b], p) })
	ids := []uint64{}
	for i := 0; i < len(cands) && i < k; i++ {
		ids = append(ids, cands[i].ID)
	}
	return ids
}

// ranked is the general ranked answer against cs, ties by ID.
func (m *bruteModel) ranked(cs spatialkeyword.CorpusStats, k int, p []float64, kw string) []uint64 {
	scorer := irscore.NewScorer(cs.NumDocs, cs.DocFreq)
	type cand struct {
		id    uint64
		score float64
	}
	var cands []cand
	for _, o := range m.rows {
		if ir := scorer.Score(o.Text, []string{kw}); ir > 0 {
			cands = append(cands, cand{o.ID, irscore.Combine(m.dist(o, p), ir)})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].score > cands[b].score })
	ids := []uint64{}
	for i := 0; i < len(cands) && i < k; i++ {
		ids = append(ids, cands[i].id)
	}
	return ids
}

// within is the area answer, in ID order.
func (m *bruteModel) within(lo, hi []float64, kw string) []uint64 {
	ids := []uint64{}
	for _, o := range m.rows {
		if o.Point[0] >= lo[0] && o.Point[0] <= hi[0] && o.Point[1] >= lo[1] && o.Point[1] <= hi[1] &&
			textutil.ContainsAll(o.Text, []string{kw}) {
			ids = append(ids, o.ID)
		}
	}
	return ids
}

func resultIDs(rs []spatialkeyword.Result) []uint64 {
	ids := []uint64{}
	for _, r := range rs {
		ids = append(ids, r.Object.ID)
	}
	return ids
}

// runSKQL parses and runs one statement.
func runSKQL(cat *skql.Catalog, stmt string) (*skql.ResultSet, error) {
	q, err := skql.Parse(stmt)
	if err != nil {
		return nil, err
	}
	return cat.Run(q)
}

// beforeDeadline fails the test if fn has not returned by the deadline: a
// deadlock fails instead of hanging.
func beforeDeadline(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not finish within %v: deadlock", what, d)
	}
}

// TestShardedConcurrentAddsFlushOnRead: writers add to three shards, which
// queue the adds, while readers run merged TopK, SearchRanked and SearchArea
// streams and SKQL statements on the same shards — each read that finds rows
// queued flushes them under its shard's read lock. A deadline fails the test
// on a deadlock. At the quiescent point after each round every answer is
// checked against brute force.
func TestShardedConcurrentAddsFlushOnRead(t *testing.T) {
	const (
		rounds        = 3
		writers       = 2
		addsPerWriter = 120
		readers       = 3
	)
	words := []string{"espresso", "harbor", "noodle", "gallery", "vinyl", "sauna"}
	s, err := New(spatialkeyword.Config{SignatureBytes: 16}, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	cat := skql.NewCatalog(s)
	var (
		mu sync.Mutex
		m  bruteModel
	)
	for round := 0; round < rounds; round++ {
		var writeWG, readWG sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < writers; w++ {
			writeWG.Add(1)
			go func(w int) {
				defer writeWG.Done()
				rng := rand.New(rand.NewSource(int64(round*writers + w)))
				for i := 0; i < addsPerWriter; i++ {
					p := []float64{rng.Float64() * 1000, rng.Float64() * 1000}
					text := fmt.Sprintf("%s %s row %d", words[rng.Intn(len(words))], words[rng.Intn(len(words))], i)
					mu.Lock() // the model's order is the global ID order
					id, err := s.Add(p, text)
					if err == nil {
						m.rows = append(m.rows, spatialkeyword.Object{ID: id, Point: p, Text: text})
					}
					mu.Unlock()
					if err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}(w)
		}
		for r := 0; r < readers; r++ {
			readWG.Add(1)
			go func(r int) {
				defer readWG.Done()
				rng := rand.New(rand.NewSource(int64(100 + round*readers + r)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					p := []float64{rng.Float64() * 1000, rng.Float64() * 1000}
					kw := words[rng.Intn(len(words))]
					if err := concurrentRead(s, cat, r, p, kw); err != nil {
						t.Errorf("reader %d: %v", r, err)
						return
					}
				}
			}(r)
		}
		beforeDeadline(t, time.Minute, fmt.Sprintf("round %d", round), func() {
			writeWG.Wait()
			close(stop)
			readWG.Wait()
		})
		if t.Failed() {
			return
		}
		checkQuiescent(t, s, cat, &m, words, rand.New(rand.NewSource(int64(round))))
	}
}

// concurrentRead is one reader step: reader 0 runs a TopK and a ranked
// stream, reader 1 an area stream and WithinArea, reader 2 SKQL. Streams are
// abandoned after a few results and closed.
func concurrentRead(s *ShardedEngine, cat *skql.Catalog, reader int, p []float64, kw string) error {
	lo, hi := []float64{p[0] - 200, p[1] - 200}, []float64{p[0] + 200, p[1] + 200}
	switch reader {
	case 0:
		if _, err := s.TopK(5, p, kw); err != nil {
			return err
		}
		it, err := s.SearchRanked(p, kw)
		if err != nil {
			return err
		}
		defer it.Close()
		for i := 0; i < 3; i++ {
			if _, ok, err := it.Next(); err != nil || !ok {
				return err
			}
		}
	case 1:
		it, err := s.SearchArea(lo, hi, kw)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if _, ok, err := it.Next(); err != nil || !ok {
				it.Close()
				return err
			}
		}
		it.Close()
		if _, _, err := s.WithinArea(lo, hi, kw); err != nil {
			return err
		}
	default:
		for _, stmt := range []string{
			fmt.Sprintf("SELECT TOP 5 NEAR (%v, %v) MATCH %s", p[0], p[1], kw),
			fmt.Sprintf("SELECT RANKED 3 NEAR (%v, %v) MATCH %s", p[0], p[1], kw),
			fmt.Sprintf("SELECT COUNT WITHIN rect(%v, %v, %v, %v) MATCH %s", lo[0], lo[1], hi[0], hi[1], kw),
		} {
			if _, err := runSKQL(cat, stmt); err != nil {
				return fmt.Errorf("%s: %w", stmt, err)
			}
		}
	}
	return nil
}

// checkQuiescent compares every query kind, native and SKQL, with brute force
// while nothing else runs.
func checkQuiescent(t *testing.T, s *ShardedEngine, cat *skql.Catalog, m *bruteModel, words []string, rng *rand.Rand) {
	t.Helper()
	for q := 0; q < 12; q++ {
		p := []float64{rng.Float64() * 1000, rng.Float64() * 1000}
		kw := words[rng.Intn(len(words))]
		lo, hi := []float64{p[0] - 200, p[1] - 200}, []float64{p[0] + 200, p[1] + 200}
		top, err := s.TopK(5, p, kw)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultIDs(top), m.topK(5, p, kw); !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(5, %v, %s) = %v, brute force %v", p, kw, got, want)
		}
		ranked, err := s.TopKRanked(5, p, kw)
		if err != nil {
			t.Fatal(err)
		}
		gotRanked := []uint64{}
		for _, r := range ranked {
			gotRanked = append(gotRanked, r.Object.ID)
		}
		if want := m.ranked(s.Corpus(), 5, p, kw); !reflect.DeepEqual(gotRanked, want) {
			t.Fatalf("TopKRanked(5, %v, %s) = %v, brute force %v", p, kw, gotRanked, want)
		}
		area, _, err := s.WithinArea(lo, hi, kw)
		if err != nil {
			t.Fatal(err)
		}
		wantArea := m.within(lo, hi, kw)
		if got := resultIDs(area); !reflect.DeepEqual(got, wantArea) {
			t.Fatalf("WithinArea(%v, %v, %s) = %v, brute force %v", lo, hi, kw, got, wantArea)
		}
		rs, err := runSKQL(cat, fmt.Sprintf("SELECT TOP 5 NEAR (%v, %v) MATCH %s", p[0], p[1], kw))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultIDs(rs.Results), m.topK(5, p, kw); !reflect.DeepEqual(got, want) {
			t.Fatalf("SKQL TOP 5 near %v %s = %v, brute force %v", p, kw, got, want)
		}
		rs, err = runSKQL(cat, fmt.Sprintf("SELECT COUNT WITHIN rect(%v, %v, %v, %v) MATCH %s", lo[0], lo[1], hi[0], hi[1], kw))
		if err != nil {
			t.Fatal(err)
		}
		if rs.Count != len(wantArea) {
			t.Fatalf("SKQL COUNT within %v–%v %s = %d, brute force %d", lo, hi, kw, rs.Count, len(wantArea))
		}
	}
}

// TestSKQLBesideOpenStreams: with nothing to do, PrepareRead takes no
// exclusive lock, so an SKQL statement — which calls it twice — completes
// while another goroutine holds a stream open on every shard.
func TestSKQLBesideOpenStreams(t *testing.T) {
	s, err := New(spatialkeyword.Config{SignatureBytes: 16}, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := s.Add([]float64{float64(i * 7 % 100), float64(i * 13 % 100)}, fmt.Sprintf("harbor cafe %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	it, err := s.Search([]float64{50, 50}, "harbor")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); err != nil || !ok {
		t.Fatalf("first Next = %v, %v", ok, err)
	}
	cat := skql.NewCatalog(s)
	for _, stmt := range []string{
		"SELECT TOP 3 NEAR (10, 10) MATCH cafe",
		"SELECT RANKED 3 NEAR (10, 10) MATCH cafe",
		"SELECT COUNT WITHIN rect(0, 0, 100, 100) MATCH harbor",
	} {
		beforeDeadline(t, 10*time.Second, stmt, func() {
			if _, err := runSKQL(cat, stmt); err != nil {
				t.Errorf("%s: %v", stmt, err)
			}
		})
	}
	it.Close()
}

// TestDeferredIndexFaultDegradesShard: an add whose row and index writes
// would fail is acknowledged — they are deferred — and the fault surfaces at
// whichever of Get, Delete, Flush or Save indexes the shard's queue next. That
// call takes the shard out of rotation, and Save then refuses it.
func TestDeferredIndexFaultDegradesShard(t *testing.T) {
	failWrites := func(op storage.Op, id storage.BlockID) error {
		if op == storage.OpWrite {
			return &storage.FaultError{Kind: storage.KindWriteError, Op: op, Block: id}
		}
		return nil
	}
	for name, indexing := range map[string]func(s *ShardedEngine, gid uint64) error{
		"Get":    func(s *ShardedEngine, gid uint64) error { _, err := s.Get(gid); return err },
		"Delete": func(s *ShardedEngine, gid uint64) error { return s.Delete(gid) },
		"Flush":  func(s *ShardedEngine, _ uint64) error { return s.Flush() },
		"Save":   func(s *ShardedEngine, _ uint64) error { return s.Save() },
	} {
		t.Run(name, func(t *testing.T) {
			s, err := NewDurable(spatialkeyword.Config{SignatureBytes: 16}, t.TempDir(), Options{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.InjectShardFault(1, failWrites)
			gid, err := s.Add(pointOnShard(s, 1), "harbor cafe")
			if err != nil {
				t.Fatalf("add with its indexing deferred: %v", err)
			}
			if err := indexing(s, gid); err != nil && !storage.IsIOFault(err) {
				t.Fatalf("%s: %v, want nil or a storage fault", name, err)
			}
			if h := s.Health()[1]; h.Healthy {
				t.Fatalf("after %s shard 1 is healthy; its deferred indexing failed", name)
			}
			if err := s.Save(); !errors.Is(err, ErrUnhealthyShard) {
				t.Fatalf("Save after %s = %v, want ErrUnhealthyShard", name, err)
			}
		})
	}
}
