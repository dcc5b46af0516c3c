package spatialkeyword_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/skql"
)

// stressObj is one acknowledged add of the concurrent program.
type stressObj struct {
	x, y float64
	text string
}

// stressModel is the serial oracle of acknowledged mutations. An add enters
// objs once Add has returned; a delete enters delStarted before Delete is
// called and delDone once it has returned. A query that began after an add
// was acknowledged and ended before its delete started must return the
// object; one that began after the delete was acknowledged must not.
type stressModel struct {
	mu         sync.Mutex
	objs       map[uint64]stressObj
	delStarted map[uint64]bool
	delDone    map[uint64]bool
}

// before copies what a query about to start is bound by.
func (m *stressModel) before() (added map[uint64]stressObj, gone map[uint64]bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	added = make(map[uint64]stressObj, len(m.objs))
	for id, o := range m.objs {
		added[id] = o
	}
	gone = make(map[uint64]bool, len(m.delDone))
	for id := range m.delDone {
		gone[id] = true
	}
	return added, gone
}

// required is added minus every object whose delete has started by now:
// the objects a query that has just ended had to see.
func (m *stressModel) required(added map[uint64]stressObj) map[uint64]stressObj {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id := range m.delStarted {
		delete(added, id)
	}
	return added
}

func dist(o stressObj, x, y float64) float64 { return math.Hypot(o.x-x, o.y-y) }

// TestEngineConcurrentUse runs writers (Add, Delete, Save) beside readers
// (Get, TopK, WithinArea, SKQL streaming TOP and RANKED) on one bare Engine
// — the engine's own lock is the only exclusion — and checks every answer
// against the oracle. The whole program runs under a deadline: a read lock
// taken recursively behind a queued writer, or a callback that calls back,
// hangs rather than races, and must fail the test instead.
func TestEngineConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	e, err := spatialkeyword.NewDurableEngine(spatialkeyword.Config{SignatureBytes: 16}, dir)
	if err != nil {
		t.Fatal(err)
	}
	var observed atomic.Int64
	e.SetMutationObserver(func(spatialkeyword.MutationEvent) { observed.Add(1) })
	cat := skql.NewCatalog(e)

	m := &stressModel{objs: map[uint64]stressObj{}, delStarted: map[uint64]bool{}, delDone: map[uint64]bool{}}
	const writers, readers, opsPerWriter, allK = 2, 4, 150, 10000
	var mutations atomic.Int64
	writersDone := make(chan struct{})

	write := func(w int) error {
		rng := rand.New(rand.NewSource(int64(100 + w)))
		var mine []uint64
		for i := 0; i < opsPerWriter; i++ {
			if len(mine) > 0 && rng.Intn(10) < 3 {
				j := rng.Intn(len(mine))
				id := mine[j]
				mine = append(mine[:j], mine[j+1:]...)
				m.mu.Lock()
				m.delStarted[id] = true
				m.mu.Unlock()
				if err := e.Delete(id); err != nil {
					return fmt.Errorf("delete %d: %w", id, err)
				}
				m.mu.Lock()
				m.delDone[id] = true
				m.mu.Unlock()
			} else {
				o := stressObj{x: rng.Float64() * 100, y: rng.Float64() * 100, text: fmt.Sprintf("stress w%dn%d", w, i)}
				id, err := e.Add([]float64{o.x, o.y}, o.text)
				if err != nil {
					return fmt.Errorf("add: %w", err)
				}
				m.mu.Lock()
				m.objs[id] = o
				m.mu.Unlock()
				mine = append(mine, id)
			}
			mutations.Add(1)
			if w == 0 && i%25 == 24 { // checkpoints beside everything else
				if err := e.Save(); err != nil {
					return fmt.Errorf("save: %w", err)
				}
			}
		}
		return nil
	}

	// check holds one answer against the oracle: nothing acknowledged as
	// deleted before the query began, everything in need that the answer
	// had room for (it holds the k nearest, or all when it came up short).
	check := func(what string, ids []uint64, dists []float64, k int, x, y float64,
		gone map[uint64]bool, need map[uint64]stressObj) error {
		seen := make(map[uint64]bool, len(ids))
		for i, id := range ids {
			if gone[id] {
				return fmt.Errorf("%s: returned object %d, deleted before the query began", what, id)
			}
			if seen[id] {
				return fmt.Errorf("%s: returned object %d twice", what, id)
			}
			seen[id] = true
			if dists != nil && i > 0 && dists[i] < dists[i-1] {
				return fmt.Errorf("%s: distances not ascending: %v", what, dists)
			}
		}
		for id, o := range need {
			if seen[id] {
				continue
			}
			if len(ids) < k || dists == nil || dist(o, x, y) < dists[len(dists)-1] {
				return fmt.Errorf("%s: object %d (%q) was live for the whole query and is missing from %d results",
					what, id, o.text, len(ids))
			}
		}
		return nil
	}
	resultIDs := func(rs []spatialkeyword.Result) (ids []uint64, dists []float64) {
		for _, r := range rs {
			ids = append(ids, r.Object.ID)
			dists = append(dists, r.Dist)
		}
		return ids, dists
	}

	read := func(r int) error {
		rng := rand.New(rand.NewSource(int64(200 + r)))
		for i := 0; ; i++ {
			select {
			case <-writersDone:
				if i >= 20 {
					return nil
				}
			default:
			}
			x, y := rng.Float64()*100, rng.Float64()*100
			k := 1 + rng.Intn(8)
			added, gone := m.before()
			switch i % 5 {
			case 0: // Get a random acknowledged object.
				for id, o := range added {
					got, err := e.Get(id)
					need := m.required(map[uint64]stressObj{id: o})
					switch {
					case err == nil && gone[id]:
						return fmt.Errorf("Get(%d) succeeded after the delete was acknowledged", id)
					case err == nil && got.Text != o.text:
						return fmt.Errorf("Get(%d) = %q, want %q", id, got.Text, o.text)
					case err != nil && !errors.Is(err, spatialkeyword.ErrDeleted):
						return fmt.Errorf("Get(%d): %w", id, err)
					case err != nil && len(need) == 1:
						return fmt.Errorf("Get(%d) = %v with no delete started", id, err)
					}
					break
				}
			case 1:
				rs, err := e.TopK(k, []float64{x, y}, "stress")
				if err != nil {
					return fmt.Errorf("TopK: %w", err)
				}
				ids, dists := resultIDs(rs)
				if err := check("TopK", ids, dists, k, x, y, gone, m.required(added)); err != nil {
					return err
				}
			case 2:
				lo, hi := []float64{x - 20, y - 20}, []float64{x + 20, y + 20}
				rs, _, err := e.WithinArea(lo, hi, "stress")
				if err != nil {
					return fmt.Errorf("WithinArea: %w", err)
				}
				need := m.required(added)
				for id, o := range need {
					if o.x < lo[0] || o.x > hi[0] || o.y < lo[1] || o.y > hi[1] {
						delete(need, id)
					}
				}
				ids, _ := resultIDs(rs)
				if err := check("WithinArea", ids, nil, allK, x, y, gone, need); err != nil {
					return err
				}
			case 3:
				q, err := skql.Parse(fmt.Sprintf(`SELECT TOP %d NEAR (%g, %g) MATCH "stress"`, k, x, y))
				if err != nil {
					return err
				}
				rs, err := cat.Run(q)
				if err != nil {
					return fmt.Errorf("SKQL TOP: %w", err)
				}
				ids, dists := resultIDs(rs.Results)
				if err := check("SKQL TOP", ids, dists, k, x, y, gone, m.required(added)); err != nil {
					return err
				}
			case 4:
				q, err := skql.Parse(fmt.Sprintf(`SELECT RANKED %d NEAR (%g, %g) MATCH "stress"`, allK, x, y))
				if err != nil {
					return err
				}
				rs, err := cat.Run(q)
				if err != nil {
					return fmt.Errorf("SKQL RANKED: %w", err)
				}
				var ids []uint64
				for _, r := range rs.Ranked {
					ids = append(ids, r.Object.ID)
				}
				if err := check("SKQL RANKED", ids, nil, allK, x, y, gone, m.required(added)); err != nil {
					return err
				}
			}
		}
	}

	errc := make(chan error, writers+readers)
	var wg, writeWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		writeWG.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writeWG.Done()
			errc <- write(w)
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errc <- read(r)
		}(r)
	}
	go func() {
		writeWG.Wait()
		close(writersDone)
	}()
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("concurrent program did not finish: an engine lock is held forever")
	}
	close(errc)
	for err := range errc {
		if err != nil {
			t.Error(err)
		}
	}
	if t.Failed() {
		return
	}
	if got := observed.Load(); got != mutations.Load() {
		t.Errorf("mutation observer saw %d events, %d mutations were acknowledged", got, mutations.Load())
	}

	// The quiesced engine, saved and reopened, answers exactly as the
	// oracle does.
	if err := e.Save(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = spatialkeyword.OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var live []uint64
	for id, o := range m.objs {
		got, err := e.Get(id)
		if m.delDone[id] {
			if !errors.Is(err, spatialkeyword.ErrDeleted) {
				t.Errorf("reopened Get(%d) of a deleted object: %v", id, err)
			}
			continue
		}
		if err != nil || got.Text != o.text {
			t.Errorf("reopened Get(%d) = %q, %v; want %q", id, got.Text, err, o.text)
		}
		live = append(live, id)
	}
	sort.Slice(live, func(i, j int) bool { return dist(m.objs[live[i]], 50, 50) < dist(m.objs[live[j]], 50, 50) })
	rs, err := e.TopK(len(live)+1, []float64{50, 50}, "stress")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := resultIDs(rs)
	if fmt.Sprint(got) != fmt.Sprint(live) {
		t.Errorf("reopened TopK = %v\nwant %v", got, live)
	}
}
