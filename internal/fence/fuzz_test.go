package fence

import (
	"testing"

	"spatialkeyword/internal/geo"
)

// FuzzFenceRegistry drives a registry with an arbitrary byte-encoded
// program of fence registrations/removals, mutations, and subscription
// traffic, asserting that nothing panics and that the registry and its
// R-Tree stay mutually consistent (Check) at every remove boundary and at
// the end. The encoding is positional so the fuzzer can meaningfully
// splice inputs: each operation consumes a fixed-size chunk.
func FuzzFenceRegistry(f *testing.F) {
	f.Add([]byte{0, 10, 10, 60, 60, 1, 3, 40, 40, 2, 20, 20, 0, 4, 25, 25, 1})
	f.Add([]byte{1, 200, 50, 30, 2, 3, 190, 55, 1, 4, 190, 55, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 255, 255, 0, 0, 1, 1, 80, 3, 128, 128, 3, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		r := NewRegistry(Options{})
		words := []string{"", "alpha", "beta", "gamma delta"}
		var fences []uint64
		var objects []Mutation
		nextObj := uint64(0)
		for steps := 0; len(data) > 0 && steps < 512; steps++ {
			switch next() % 6 {
			case 0: // register a region fence
				x, y := float64(next()), float64(next())
				w, h := float64(next())+1, float64(next())+1
				kw := words[next()%4]
				var kws []string
				if kw != "" {
					kws = []string{kw}
				}
				id, err := r.Add(Query{
					Region:   geo.Rect{Lo: geo.Point{x, y}, Hi: geo.Point{x + w, y + h}},
					Keywords: kws,
					K:        int(next() % 4),
				})
				if err != nil {
					t.Fatalf("region add: %v", err)
				}
				fences = append(fences, id)
			case 1: // register a radius fence
				x, y := float64(next()), float64(next())
				id, err := r.Add(Query{
					Center:    geo.Point{x, y},
					Radius:    float64(next()) + 1,
					K:         int(next() % 3),
					Threshold: float64(next()),
				})
				if err != nil {
					t.Fatalf("radius add: %v", err)
				}
				fences = append(fences, id)
			case 2: // remove a fence
				if len(fences) == 0 {
					continue
				}
				i := int(next()) % len(fences)
				if err := r.Remove(fences[i]); err != nil {
					t.Fatalf("remove: %v", err)
				}
				fences = append(fences[:i], fences[i+1:]...)
				if err := r.Check(); err != nil {
					t.Fatalf("after remove: %v", err)
				}
			case 3: // add an object
				m := Mutation{
					ID:    nextObj,
					Point: geo.Point{float64(next()), float64(next())},
					Text:  words[next()%4],
				}
				nextObj++
				objects = append(objects, m)
				r.Apply(m)
			case 4: // delete a live object
				if len(objects) == 0 {
					continue
				}
				i := int(next()) % len(objects)
				m := objects[i]
				objects = append(objects[:i], objects[i+1:]...)
				m.Delete = true
				r.Apply(m)
			case 5: // subscribe, poll, close
				if len(fences) == 0 {
					continue
				}
				id := fences[int(next())%len(fences)]
				sub, err := r.Subscribe(id, int(next()%4))
				if err != nil {
					t.Fatalf("subscribe: %v", err)
				}
				if _, _, err := r.EventsSince(id, uint64(next()), int(next())); err != nil {
					t.Fatalf("events since: %v", err)
				}
				sub.Close()
			}
		}
		if err := r.Check(); err != nil {
			t.Fatal(err)
		}
		// The registry must still evaluate cleanly after the program.
		r.Apply(Mutation{ID: nextObj, Point: geo.Point{1, 1}, Text: "alpha"})
	})
}
