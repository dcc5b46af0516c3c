package fence

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/textutil"
)

// The oracle: an intentionally naive model of every fence's result set,
// recomputed from scratch after each mutation by scanning all live
// objects. It shares no code with the registry's incremental evaluation —
// diffing, ordering, and membership are all reimplemented — so agreement
// between the two is evidence, not tautology.

type oracleObject struct {
	id    uint64
	point geo.Point
	text  string
}

type oracleFence struct {
	id uint64
	q  Query
}

type oracle struct {
	an      *textutil.Analyzer
	objects map[uint64]oracleObject
	fences  []oracleFence
}

func newOracle(an *textutil.Analyzer) *oracle {
	return &oracle{an: an, objects: make(map[uint64]oracleObject)}
}

// resultSet recomputes fence f's result window by brute force: scan every
// live object, keep exact matches, sort by (dist, id), truncate to K.
func (o *oracle) resultSet(f oracleFence) []member {
	var all []member
	for _, obj := range o.objects {
		d := obj.point.Dist(f.q.focus())
		if f.q.radial() {
			if d > f.q.Radius {
				continue
			}
		} else if !f.q.Region.ContainsPoint(obj.point) {
			continue
		}
		if f.q.Threshold > 0 && d > f.q.Threshold {
			continue
		}
		if !o.containsAll(obj.text, f.q.Keywords) {
			continue
		}
		all = append(all, member{id: obj.id, dist: d})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].dist != all[j].dist {
			return all[i].dist < all[j].dist
		}
		return all[i].id < all[j].id
	})
	if f.q.K > 0 && len(all) > f.q.K {
		all = all[:f.q.K]
	}
	return all
}

// containsAll is the model's keyword test: every raw keyword, normalized
// on its own, is one of the document's pipeline tokens.
func (o *oracle) containsAll(text string, keywords []string) bool {
	toks := make(map[string]bool)
	for _, tok := range o.an.Tokens(text) {
		toks[tok] = true
	}
	for _, w := range keywords {
		if !toks[o.an.Keyword(w)] {
			return false
		}
	}
	return true
}

// apply mutates the object set and returns the expected events for every
// fence, in (fence id, event order) sequence: per fence, leaves sorted by
// object id, then enters in rank order, then rank updates in rank order.
func (o *oracle) apply(m Mutation) []Event {
	before := make(map[uint64][]member, len(o.fences))
	for _, f := range o.fences {
		before[f.id] = o.resultSet(f)
	}
	if m.Delete {
		delete(o.objects, m.ID)
	} else {
		o.objects[m.ID] = oracleObject{id: m.ID, point: m.Point.Clone(), text: m.Text}
	}
	var out []Event
	for _, f := range o.fences {
		prev, next := before[f.id], o.resultSet(f)
		prevAt := make(map[uint64]int, len(prev))
		for i, mm := range prev {
			prevAt[mm.id] = i
		}
		nextAt := make(map[uint64]int, len(next))
		for i, mm := range next {
			nextAt[mm.id] = i
		}
		var leaves []Event
		for _, mm := range prev {
			if _, ok := nextAt[mm.id]; !ok {
				leaves = append(leaves, Event{Fence: f.id, Kind: Leave, Object: mm.id, Dist: mm.dist})
			}
		}
		sort.Slice(leaves, func(i, j int) bool { return leaves[i].Object < leaves[j].Object })
		out = append(out, leaves...)
		for i, mm := range next {
			if _, ok := prevAt[mm.id]; !ok {
				ev := Event{Fence: f.id, Kind: Enter, Object: mm.id, Dist: mm.dist}
				if f.q.K > 0 {
					ev.Rank = i + 1
				}
				out = append(out, ev)
			}
		}
		if f.q.K > 0 {
			for i, mm := range next {
				if j, ok := prevAt[mm.id]; ok && j != i {
					out = append(out, Event{Fence: f.id, Kind: Update, Object: mm.id, Dist: mm.dist, Rank: i + 1})
				}
			}
		}
	}
	return out
}

// randomFence draws one of the three fence shapes with seeded geometry
// and keywords.
func randomFence(rng *rand.Rand, vocab []string) Query {
	var q Query
	nkw := rng.Intn(3)
	for i := 0; i < nkw; i++ {
		q.Keywords = append(q.Keywords, vocab[rng.Intn(len(vocab))])
	}
	switch rng.Intn(3) {
	case 0:
		x, y := rng.Float64()*100, rng.Float64()*100
		q.Region = geo.Rect{Lo: geo.Point{x, y}, Hi: geo.Point{x + 5 + rng.Float64()*20, y + 5 + rng.Float64()*20}}
	case 1:
		q.Center = geo.Point{rng.Float64() * 100, rng.Float64() * 100}
		q.Radius = 2 + rng.Float64()*15
	default:
		q.Center = geo.Point{rng.Float64() * 100, rng.Float64() * 100}
		q.Radius = 5 + rng.Float64()*20
		q.K = 1 + rng.Intn(4)
		if rng.Intn(2) == 0 {
			q.Threshold = q.Radius * (0.5 + rng.Float64()*0.5)
		}
	}
	return q
}

var oracleVocab = []string{
	"pizza", "coffee", "sushi", "bar", "museum", "park", "hotel",
	"theater", "garage", "bakery", "wifi", "garden", "market",
}

// TestOracleEquivalence is the acceptance oracle: a seeded mutation
// stream against 120 registered fences, with the registry's emitted
// events compared to the brute-force model after every single mutation.
// It runs on the stemming and stopword pipeline, and on the plain one over
// text in mixed case with non-ASCII letters.
func TestOracleEquivalence(t *testing.T) {
	checkNoGoroutineLeak(t)
	t.Run("stemming+stopwords", func(t *testing.T) {
		an := &textutil.Analyzer{Stemming: true, Stopwords: textutil.DefaultStopwords()}
		runOracleEquivalence(t, an, oracleVocab, randomText)
	})
	t.Run("plain/mixed-text", func(t *testing.T) {
		vocab := append([]string{"café", "zürich"}, oracleVocab...)
		runOracleEquivalence(t, nil, vocab, func(rng *rand.Rand) string {
			words := strings.Fields(randomText(rng))
			for i, w := range words {
				if rng.Intn(4) == 0 {
					w = vocab[rng.Intn(2)]
				}
				words[i] = mixCase(rng, w)
			}
			return strings.Join(words, " ")
		})
	})
}

// mixCase spells word as a document might: as is, capitalized, or in
// capitals — the capitals sometimes written with U+212A KELVIN SIGN for K
// and U+0130 for I, which lower-case to ASCII k and i — or run into a
// non-ASCII word across a non-ASCII separator.
func mixCase(rng *rand.Rand, word string) string {
	switch rng.Intn(5) {
	case 0:
		return word
	case 1:
		return strings.ToUpper(word[:1]) + word[1:]
	case 2:
		return strings.ToUpper(word)
	case 3:
		return strings.NewReplacer("K", "\u212A", "I", "\u0130").Replace(strings.ToUpper(word))
	default:
		return word + "\u00b7Zürich"
	}
}

func runOracleEquivalence(t *testing.T, an *textutil.Analyzer, vocab []string, text func(*rand.Rand) string) {
	rng := rand.New(rand.NewSource(42))
	reg := NewRegistry(Options{Analyzer: an})
	model := newOracle(an)

	const nFences = 120
	for i := 0; i < nFences; i++ {
		q := randomFence(rng, vocab)
		id, err := reg.Add(q)
		if err != nil {
			t.Fatalf("fence %d: %v", i, err)
		}
		// The model evaluates the ORIGINAL query — containsAll in
		// resultSet normalizes the raw keywords itself, independently of
		// the registry's normalization at Add.
		model.fences = append(model.fences, oracleFence{id: id, q: q})
	}
	if reg.Len() != nFences {
		t.Fatalf("registered %d fences", reg.Len())
	}

	// Subscribers on a sample of fences double-check that the channel
	// stream equals the Apply return values for those fences.
	type subCheck struct {
		sub  *Subscription
		want []Event
	}
	var subs []subCheck
	for i := 0; i < 10; i++ {
		sub, err := reg.Subscribe(model.fences[i*7].id, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs = append(subs, subCheck{sub: sub})
	}

	var live []uint64
	nextID := uint64(0)
	const mutations = 600
	for step := 0; step < mutations; step++ {
		var m Mutation
		if len(live) > 0 && rng.Intn(100) < 35 {
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			obj := model.objects[id]
			m = Mutation{Delete: true, ID: id, Point: obj.point, Text: obj.text}
		} else {
			m = Mutation{
				ID:    nextID,
				Point: geo.Point{rng.Float64() * 100, rng.Float64() * 100},
				Text:  text(rng),
			}
			live = append(live, nextID)
			nextID++
		}
		got := reg.Apply(m)
		want := model.apply(m)
		if err := sameEvents(got, want); err != nil {
			t.Fatalf("step %d (%+v): %v\n got: %+v\nwant: %+v", step, m, err, got, want)
		}
		for i := range subs {
			for _, ev := range got {
				if ev.Fence == subs[i].sub.Fence() {
					subs[i].want = append(subs[i].want, ev)
				}
			}
		}
	}
	if err := reg.Check(); err != nil {
		t.Fatal(err)
	}
	// Drain each sampled subscription: buffered events must be exactly the
	// per-fence subsequence of the Apply outputs (buffer 64 may have
	// dropped the tail; drops must be accounted, never reordered).
	for _, sc := range subs {
		delivered := 0
		for {
			select {
			case ev := <-sc.sub.C:
				if delivered >= len(sc.want) {
					t.Fatalf("fence %d: extra event %+v", sc.sub.Fence(), ev)
				}
				if ev != sc.want[delivered] {
					t.Fatalf("fence %d: event %d = %+v, want %+v", sc.sub.Fence(), delivered, ev, sc.want[delivered])
				}
				delivered++
				continue
			default:
			}
			break
		}
		if uint64(len(sc.want)-delivered) != sc.sub.Dropped() {
			t.Fatalf("fence %d: delivered %d of %d, dropped says %d",
				sc.sub.Fence(), delivered, len(sc.want), sc.sub.Dropped())
		}
	}
	// Sanity on the pruning funnel: each stage only narrows.
	st := reg.Stats()
	if st.Mutations != mutations {
		t.Fatalf("stats mutations = %d", st.Mutations)
	}
	if st.SigHits > st.SpatialHits || st.ExactHits > st.SigHits {
		t.Fatalf("pruning funnel widened: %+v", st)
	}
}

func randomText(rng *rand.Rand) string {
	n := 1 + rng.Intn(4)
	s := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			s += " "
		}
		s += oracleVocab[rng.Intn(len(oracleVocab))]
	}
	return s
}

// sameEvents compares event streams field by field.
func sameEvents(got, want []Event) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d != %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		// The model does not track sequence numbers; check everything else
		// and check that sequences are per-fence contiguous separately.
		w.Seq = g.Seq
		if g != w {
			return fmt.Errorf("event %d differs", i)
		}
	}
	seqs := make(map[uint64]uint64)
	for i, g := range got {
		if last, ok := seqs[g.Fence]; ok && g.Seq != last+1 {
			return fmt.Errorf("event %d: fence %d seq %d after %d", i, g.Fence, g.Seq, last)
		}
		seqs[g.Fence] = g.Seq
	}
	return nil
}

func checkNoGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}
