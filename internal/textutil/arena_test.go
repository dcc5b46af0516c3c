package textutil

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTermArenaMatchesRows holds the arena to the rows set into it: random
// rows — empty ones, skipped IDs, dense and sparse term IDs, counts from 1
// to past 2^16, rows longer than a chunk — read back whole (Terms), by
// membership (HoldsAll) and by count (CountsInto), also across chunk
// boundaries, and the chunks never hold more than a row's waste each.
func TestTermArenaMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	type row struct {
		ids    []uint32
		counts []int32
	}
	var a TermArena
	want := map[int]row{}
	id := 0
	for n := 0; n < 6000; n++ {
		id += 1 + rng.Intn(3)*rng.Intn(2) // some IDs skipped
		var r row
		distinct := rng.Intn(80)
		switch {
		case n == 3000:
			distinct = 40000 // longer than a chunk
		case n%97 == 0:
			distinct = 0
		}
		span := 1 + rng.Intn(1<<uint(rng.Intn(20)))
		seen := map[uint32]bool{}
		for len(r.ids) < distinct && len(seen) < span {
			t := uint32(rng.Intn(span))
			if n == 3000 {
				t = uint32(len(r.ids) * 3)
			}
			if seen[t] {
				continue
			}
			seen[t] = true
			c := int32(1)
			if rng.Intn(4) == 0 {
				c += int32(rng.Intn(1 << uint(rng.Intn(18))))
			}
			r.ids, r.counts = append(r.ids, t), append(r.counts, c)
		}
		a.Set(id, r.ids, r.counts)
		want[id] = r
	}
	if a.Len() != id+1 {
		t.Fatalf("Len %d, want %d", a.Len(), id+1)
	}
	counts := make([]int, 3)
	for i := 0; i < a.Len(); i++ {
		r := want[i] // a skipped ID holds no term
		ids, cs := a.Terms(i, nil, nil)
		type tc struct {
			id uint32
			c  int32
		}
		var got, exp []tc
		for j := range ids {
			got = append(got, tc{ids[j], cs[j]})
		}
		for j := range r.ids {
			exp = append(exp, tc{r.ids[j], r.counts[j]})
		}
		slices.SortFunc(exp, func(x, y tc) int { return int(x.id) - int(y.id) })
		if !slices.Equal(got, exp) {
			t.Fatalf("row %d: Terms %v, want %v", i, got, exp)
		}
		// Probe two held terms (when there are) and one absent.
		probe := []uint32{NoTerm, NoTerm, 1 << 30}
		if len(exp) > 0 {
			probe[0] = exp[rng.Intn(len(exp))].id
			probe[1] = exp[len(exp)-1].id
		}
		a.CountsInto(counts, i, probe)
		for k, w := range probe {
			wantC := 0
			for _, e := range exp {
				if e.id == w {
					wantC = int(e.c)
				}
			}
			if counts[k] != wantC {
				t.Fatalf("row %d: count of %d = %d, want %d", i, w, counts[k], wantC)
			}
		}
		sorted := slices.Clone(probe[:2])
		slices.Sort(sorted)
		sorted = slices.Compact(sorted)
		if got, wantH := a.HoldsAll(i, sorted), len(exp) > 0; got != wantH {
			t.Fatalf("row %d: HoldsAll(%v) = %v, want %v", i, sorted, got, wantH)
		}
		if a.HoldsAll(i, []uint32{probe[0], 1 << 30}) {
			t.Fatalf("row %d holds an absent term", i)
		}
	}
	if len(a.chunks) < 3 {
		t.Fatalf("%d chunks: the rows never crossed a chunk", len(a.chunks))
	}
}
