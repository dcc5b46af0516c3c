package core

import (
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/objstore"
	"spatialkeyword/internal/rtree"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/textutil"
)

// TestTraceReproducesExample3Pruning traces the paper's Example 3 query on
// the Figure 1 hotels and verifies the narrated behavior: subtrees whose
// signatures miss the query are pruned without being visited, and every
// prune is sound (no pruned subtree contains a qualifying hotel).
func TestTraceReproducesExample3Pruning(t *testing.T) {
	f := buildFixture(t, figure1, 3, 16)
	it := f.sir2.Search(geo.NewPoint(30.5, 100.0), []string{"internet", "pool"}, f.rows)

	var events []rtree.TraceEvent
	it.SetTrace(func(ev rtree.TraceEvent) { events = append(events, ev) })

	var results []Result
	for {
		res, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		results = append(results, res)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}

	var prunes, expands, emits int
	expanded := make(map[storage.BlockID]bool)
	prunedSubtrees := []uint64{}
	prunedLevels := []int{}
	for _, ev := range events {
		switch ev.Kind {
		case rtree.TracePrune:
			prunes++
			if ev.Level > 0 {
				prunedSubtrees = append(prunedSubtrees, ev.Child)
				prunedLevels = append(prunedLevels, ev.Level)
			}
		case rtree.TraceExpand:
			expands++
			expanded[ev.Node] = true
		case rtree.TraceEmit:
			emits++
		}
	}
	// Example 3's narration: "Only one child of N1 is enqueued. The other
	// child is discarded as it fails the signature check. Objects H1 and H6
	// also get pruned..." — with a 16-byte signature over the tiny Figure 1
	// docs, pruning must occur.
	if prunes == 0 {
		t.Fatal("no pruning traced — signature filter inert")
	}
	if emits != 2 {
		t.Errorf("emits = %d", emits)
	}
	// Soundness: pruned interior subtrees contain no qualifying object, and
	// they were never expanded.
	for i, child := range prunedSubtrees {
		if expanded[storage.BlockID(child)] {
			t.Errorf("pruned subtree %d was expanded anyway", child)
		}
		node, err := f.sir2.RTree().LoadNode(storage.BlockID(child))
		if err != nil {
			t.Fatal(err)
		}
		refs, err := f.sir2.RTree().SubtreeObjectRefs(node)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range refs {
			obj, err := f.store.GetByID(objstore.ID(ref))
			if err != nil {
				t.Fatal(err)
			}
			if textutil.ContainsAll(obj.Text, []string{"internet", "pool"}) {
				t.Errorf("pruned subtree %d (level %d) contained qualifying hotel %d",
					child, prunedLevels[i], obj.ID)
			}
		}
	}
}

// TestTraceEventOrdering checks the protocol: the first event expands the
// root, every enqueue names the node just expanded, and emits only follow
// their enqueue.
func TestTraceEventOrdering(t *testing.T) {
	f := buildFixture(t, figure1, 3, 16)
	it := f.sir2.Search(geo.NewPoint(0, 0), []string{"pool"}, f.rows)
	var events []rtree.TraceEvent
	it.SetTrace(func(ev rtree.TraceEvent) { events = append(events, ev) })
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	if events[0].Kind != rtree.TraceExpand {
		t.Errorf("first event = %v, want expand of root", events[0].Kind)
	}
	root, err := f.sir2.RTree().Root()
	if err != nil {
		t.Fatal(err)
	}
	if events[0].Node != root.ID() {
		t.Errorf("first expand = node %d, want root %d", events[0].Node, root.ID())
	}
	enqueuedObjects := make(map[uint64]bool)
	currentExpand := storage.NilBlock
	for _, ev := range events {
		switch ev.Kind {
		case rtree.TraceExpand:
			currentExpand = ev.Node
		case rtree.TraceEnqueueNode, rtree.TraceEnqueueObject, rtree.TracePrune:
			if ev.Node != currentExpand {
				t.Fatalf("entry event for node %d while expanding %d", ev.Node, currentExpand)
			}
			if ev.Kind == rtree.TraceEnqueueObject {
				enqueuedObjects[ev.Child] = true
			}
		case rtree.TraceEmit:
			if !enqueuedObjects[ev.Child] {
				t.Fatalf("object %d emitted without being enqueued", ev.Child)
			}
		}
	}
}

func TestTraceKindString(t *testing.T) {
	kinds := map[rtree.TraceKind]string{
		rtree.TraceExpand:        "expand",
		rtree.TraceEnqueueNode:   "enqueue-node",
		rtree.TraceEnqueueObject: "enqueue-object",
		rtree.TracePrune:         "prune",
		rtree.TraceEmit:          "emit",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}
