package fence

import (
	"reflect"
	"sync"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/obs"
)

func region(x0, y0, x1, y1 float64) geo.Rect {
	return geo.Rect{Lo: geo.Point{x0, y0}, Hi: geo.Point{x1, y1}}
}

func kinds(evs []Event) []Kind {
	out := make([]Kind, len(evs))
	for i, ev := range evs {
		out[i] = ev.Kind
	}
	return out
}

func TestRegistryValidate(t *testing.T) {
	r := NewRegistry(Options{})
	cases := []Query{
		{},                                      // neither region nor center
		{Center: geo.Point{1, 2}},               // no radius
		{Center: geo.Point{1, 2}, Radius: -1},   // negative radius
		{Center: geo.Point{1, 2, 3}, Radius: 1}, // wrong dims
		{Region: region(0, 0, 1, 1), Center: geo.Point{1, 2}, Radius: 1}, // both
		{Region: geo.Rect{Lo: geo.Point{1, 1}, Hi: geo.Point{0, 0}}},     // inverted
		{Region: region(0, 0, 1, 1), K: -1},                              // negative K
		{Region: region(0, 0, 1, 1), Threshold: -1},                      // negative threshold
	}
	for i, q := range cases {
		if _, err := r.Add(q); err == nil {
			t.Errorf("case %d: Add(%+v) succeeded, want error", i, q)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("registry not empty after rejected adds: %d", r.Len())
	}
}

func TestRegionEnterLeave(t *testing.T) {
	r := NewRegistry(Options{})
	id, err := r.Add(Query{Region: region(0, 0, 10, 10), Keywords: []string{"pizza"}})
	if err != nil {
		t.Fatal(err)
	}

	// Inside + keyword → enter.
	evs := r.Apply(Mutation{ID: 1, Point: geo.Point{5, 5}, Text: "wood fired pizza"})
	if len(evs) != 1 || evs[0].Kind != Enter || evs[0].Object != 1 || evs[0].Fence != id || evs[0].Seq != 1 {
		t.Fatalf("enter: got %+v", evs)
	}
	// Inside, missing keyword → nothing.
	if evs := r.Apply(Mutation{ID: 2, Point: geo.Point{5, 5}, Text: "sushi bar"}); len(evs) != 0 {
		t.Fatalf("keyword miss produced %+v", evs)
	}
	// Outside, with keyword → nothing.
	if evs := r.Apply(Mutation{ID: 3, Point: geo.Point{50, 50}, Text: "pizza"}); len(evs) != 0 {
		t.Fatalf("outside produced %+v", evs)
	}
	// Delete the member → leave.
	evs = r.Apply(Mutation{Delete: true, ID: 1, Point: geo.Point{5, 5}, Text: "wood fired pizza"})
	if len(evs) != 1 || evs[0].Kind != Leave || evs[0].Object != 1 || evs[0].Seq != 2 {
		t.Fatalf("leave: got %+v", evs)
	}
	// Delete a non-member → nothing.
	if evs := r.Apply(Mutation{Delete: true, ID: 2, Point: geo.Point{5, 5}, Text: "sushi bar"}); len(evs) != 0 {
		t.Fatalf("non-member delete produced %+v", evs)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRadiusFence(t *testing.T) {
	r := NewRegistry(Options{})
	if _, err := r.Add(Query{Center: geo.Point{0, 0}, Radius: 5}); err != nil {
		t.Fatal(err)
	}
	// Inside the bounding box but outside the circle: (4,4) has dist ~5.66.
	if evs := r.Apply(Mutation{ID: 1, Point: geo.Point{4, 4}, Text: "x"}); len(evs) != 0 {
		t.Fatalf("corner point matched circle: %+v", evs)
	}
	if evs := r.Apply(Mutation{ID: 2, Point: geo.Point{3, 3}, Text: "x"}); len(evs) != 1 || evs[0].Kind != Enter {
		t.Fatalf("in-circle point: %+v", evs)
	}
}

func TestConjunctiveKeywords(t *testing.T) {
	r := NewRegistry(Options{})
	if _, err := r.Add(Query{Region: region(0, 0, 10, 10), Keywords: []string{"coffee", "wifi"}}); err != nil {
		t.Fatal(err)
	}
	if evs := r.Apply(Mutation{ID: 1, Point: geo.Point{1, 1}, Text: "coffee shop"}); len(evs) != 0 {
		t.Fatalf("partial keyword match: %+v", evs)
	}
	if evs := r.Apply(Mutation{ID: 2, Point: geo.Point{1, 1}, Text: "coffee shop with wifi"}); len(evs) != 1 {
		t.Fatalf("full keyword match: %+v", evs)
	}
}

func TestTopKPromotion(t *testing.T) {
	r := NewRegistry(Options{})
	id, err := r.Add(Query{Center: geo.Point{0, 0}, Radius: 100, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Fill: objects at distance 1, 2, 3. The third lands outside the top-2
	// but must still be tracked.
	r.Apply(Mutation{ID: 1, Point: geo.Point{1, 0}, Text: "a"})
	r.Apply(Mutation{ID: 2, Point: geo.Point{2, 0}, Text: "a"})
	if evs := r.Apply(Mutation{ID: 3, Point: geo.Point{3, 0}, Text: "a"}); len(evs) != 0 {
		t.Fatalf("beyond-k add produced %+v", evs)
	}
	// A closer object displaces rank 2: enter(4@1) + leave(2) + update(1→2).
	evs := r.Apply(Mutation{ID: 4, Point: geo.Point{0.5, 0}, Text: "a"})
	byKind := map[Kind]int{}
	for _, ev := range evs {
		byKind[ev.Kind]++
	}
	if byKind[Enter] != 1 || byKind[Leave] != 1 || byKind[Update] != 1 {
		t.Fatalf("displacement events: %+v", evs)
	}
	for _, ev := range evs {
		switch ev.Kind {
		case Enter:
			if ev.Object != 4 || ev.Rank != 1 {
				t.Fatalf("enter: %+v", ev)
			}
		case Leave:
			if ev.Object != 2 {
				t.Fatalf("leave: %+v", ev)
			}
		case Update:
			if ev.Object != 1 || ev.Rank != 2 {
				t.Fatalf("update: %+v", ev)
			}
		}
	}
	// Deleting a member promotes the tracked runner-up: leave(4) +
	// enter(2@2) + update(1→1).
	evs = r.Apply(Mutation{Delete: true, ID: 4, Point: geo.Point{0.5, 0}, Text: "a"})
	if got := kinds(evs); !reflect.DeepEqual(got, []Kind{Leave, Enter, Update}) {
		t.Fatalf("promotion kinds: %v (%+v)", got, evs)
	}
	if evs[1].Object != 2 || evs[1].Rank != 2 {
		t.Fatalf("promoted enter: %+v", evs[1])
	}
	info, ok := r.Get(id)
	if !ok || info.Members != 3 {
		t.Fatalf("info = %+v, want 3 tracked members", info)
	}
}

func TestThreshold(t *testing.T) {
	r := NewRegistry(Options{})
	if _, err := r.Add(Query{Region: region(0, 0, 10, 10), Threshold: 2}); err != nil {
		t.Fatal(err)
	}
	// Region center is (5,5); (9,9) is inside the region but past the
	// threshold distance.
	if evs := r.Apply(Mutation{ID: 1, Point: geo.Point{9, 9}, Text: "x"}); len(evs) != 0 {
		t.Fatalf("past-threshold add produced %+v", evs)
	}
	if evs := r.Apply(Mutation{ID: 2, Point: geo.Point{5, 6}, Text: "x"}); len(evs) != 1 {
		t.Fatalf("in-threshold add: %+v", evs)
	}
}

func TestSubscriptionDropAndSeqGap(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRegistry(Options{Metrics: NewMetrics(reg)})
	id, _ := r.Add(Query{Region: region(0, 0, 100, 100)})
	sub, err := r.Subscribe(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := uint64(1); i <= 5; i++ {
		r.Apply(Mutation{ID: i, Point: geo.Point{1, 1}, Text: "x"})
	}
	if got := sub.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	// The two delivered events are the first two; the gap is visible in Seq.
	ev1, ev2 := <-sub.C, <-sub.C
	if ev1.Seq != 1 || ev2.Seq != 2 {
		t.Fatalf("delivered seqs %d, %d", ev1.Seq, ev2.Seq)
	}
	// EventsSince recovers the gap.
	evs, lagged, err := r.EventsSince(id, ev2.Seq, 0)
	if err != nil || lagged {
		t.Fatalf("EventsSince: %v lagged=%v", err, lagged)
	}
	if len(evs) != 3 || evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Fatalf("recovered %+v", evs)
	}
	if st := r.Stats(); st.Dropped != 3 {
		t.Fatalf("stats dropped = %d", st.Dropped)
	}
}

func TestEventsSinceLagged(t *testing.T) {
	r := NewRegistry(Options{})
	id, _ := r.Add(Query{Region: region(0, 0, 100, 100)})
	const n = historyLen + 6
	for i := uint64(1); i <= n; i++ {
		r.Apply(Mutation{ID: i, Point: geo.Point{1, 1}, Text: "x"})
	}
	// Ring holds seqs 7..n; asking from 2 must flag the lost 3..6.
	evs, lagged, err := r.EventsSince(id, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !lagged {
		t.Fatal("want lagged=true")
	}
	if len(evs) != historyLen || evs[0].Seq != 7 || evs[len(evs)-1].Seq != n {
		t.Fatalf("got %d events, %+v first", len(evs), evs[0])
	}
	// max caps the page.
	evs, _, _ = r.EventsSince(id, 0, 2)
	if len(evs) != 2 || evs[0].Seq != 7 {
		t.Fatalf("paged %+v", evs)
	}
	// Up to date: no events, not lagged.
	evs, lagged, _ = r.EventsSince(id, n, 0)
	if len(evs) != 0 || lagged {
		t.Fatalf("caught-up: %v lagged=%v", evs, lagged)
	}
	if _, _, err := r.EventsSince(999, 0, 0); err != ErrNoFence {
		t.Fatalf("unknown fence: %v", err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveClosesSubscriptions(t *testing.T) {
	r := NewRegistry(Options{})
	id, _ := r.Add(Query{Region: region(0, 0, 1, 1)})
	sub, _ := r.Subscribe(id, 1)
	if err := r.Remove(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C; ok {
		t.Fatal("channel not closed on Remove")
	}
	sub.Close() // double close must be safe
	if err := r.Remove(id); err != ErrNoFence {
		t.Fatalf("second Remove: %v", err)
	}
	if _, err := r.Subscribe(id, 1); err != ErrNoFence {
		t.Fatalf("Subscribe after Remove: %v", err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsWiring(t *testing.T) {
	obsReg := obs.NewRegistry()
	m := NewMetrics(obsReg)
	r := NewRegistry(Options{Metrics: m})
	id, _ := r.Add(Query{Region: region(0, 0, 10, 10), K: 1})
	if m.Registered.Value() != 1 {
		t.Fatalf("registered = %d", m.Registered.Value())
	}
	r.Apply(Mutation{ID: 1, Point: geo.Point{1, 1}, Text: "x"})               // enter
	r.Apply(Mutation{ID: 2, Point: geo.Point{5, 5}, Text: "x"})               // tracked, no event
	r.Apply(Mutation{Delete: true, ID: 1, Point: geo.Point{1, 1}, Text: "x"}) // leave + enter(2)
	if got := m.byKind[Enter].Value(); got != 2 {
		t.Fatalf("enter counter = %d", got)
	}
	if got := m.byKind[Leave].Value(); got != 1 {
		t.Fatalf("leave counter = %d", got)
	}
	if n := m.EvalSeconds.Snapshot().Count; n != 3 {
		t.Fatalf("eval histogram count = %d", n)
	}
	_ = r.Remove(id)
	if m.Registered.Value() != 0 {
		t.Fatalf("registered after remove = %d", m.Registered.Value())
	}
}

// TestConcurrentApplySubscribe exercises Apply, Subscribe/Close, and
// EventsSince racing; run under -race it is the registry's data-race
// gate.
func TestConcurrentApplySubscribe(t *testing.T) {
	r := NewRegistry(Options{})
	var ids []uint64
	for i := 0; i < 8; i++ {
		id, err := r.Add(Query{Region: region(float64(i*10), 0, float64(i*10+15), 100), Keywords: []string{"go"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, id := range ids[:4] {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			sub, err := r.Subscribe(id, 16)
			if err != nil {
				t.Error(err)
				return
			}
			defer sub.Close()
			for {
				select {
				case <-stop:
					return
				case <-sub.C:
				}
			}
		}(id)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				oid := uint64(g*1000 + i)
				r.Apply(Mutation{ID: oid, Point: geo.Point{float64(i % 80), 50}, Text: "go conference"})
				r.Apply(Mutation{Delete: true, ID: oid, Point: geo.Point{float64(i % 80), 50}, Text: "go conference"})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			for _, id := range ids {
				if _, _, err := r.EventsSince(id, 0, 8); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	// Let the workers finish, then release the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		// Writers are the slow part; readers exit via stop.
		defer close(stop)
		for i := 0; i < 100; i++ {
			r.Stats()
		}
	}()
	<-done
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}
