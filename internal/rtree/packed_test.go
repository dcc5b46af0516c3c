package rtree

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/sigfile"
	"spatialkeyword/internal/storage"
)

// forEachNodeID walks the tree and calls fn with every node's block ID.
func forEachNodeID(t *testing.T, tree *Tree, fn func(id storage.BlockID)) {
	t.Helper()
	root, err := tree.Root()
	if err != nil {
		t.Fatal(err)
	}
	if root == nil {
		return
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		fn(n.ID())
		if n.Level() == 0 {
			return
		}
		for i := 0; i < n.NumEntries(); i++ {
			ptr, _, _ := n.Entry(i)
			child, err := tree.LoadNode(storage.BlockID(ptr))
			if err != nil {
				t.Fatal(err)
			}
			walk(child)
		}
	}
	walk(root)
}

// TestPackedMatchesLoadNode is the decode differential oracle: for every node
// of a grown tree, the packed view must agree with loadNode's pointer-rich
// decode field for field, and the pinned image must equal the persisted
// encoding byte for byte.
func TestPackedMatchesLoadNode(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme AuxScheme
		maxE   int
	}{
		{"plain", nil, 3},
		{"aux4", orScheme{n: 4}, 3},
		{"multiblock", bigScheme{orScheme{n: 2048}}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			disk := storage.NewDisk(4096)
			tree, err := New(disk, Config{MaxEntries: tc.maxE, Scheme: tc.scheme})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 150; i++ {
				p := geo.NewPoint(rng.Float64()*100, rng.Float64()*100)
				var aux []byte
				if tc.scheme != nil {
					aux = make([]byte, tc.scheme.EntryAuxLen(0))
					copy(aux, refMask(uint64(i)))
				}
				if err := tree.Insert(uint64(i), geo.PointRect(p), aux, nil); err != nil {
					t.Fatal(err)
				}
			}
			nodes := 0
			lo := make(geo.Point, 2)
			hi := make(geo.Point, 2)
			forEachNodeID(t, tree, func(id storage.BlockID) {
				nodes++
				n, err := tree.LoadNode(id)
				if err != nil {
					t.Fatal(err)
				}
				// Twice: first call decodes cold, second serves the cache hit;
				// both views must agree with the legacy decode.
				for pass := 0; pass < 2; pass++ {
					pn, err := tree.LoadPacked(id)
					if err != nil {
						t.Fatal(err)
					}
					if pn.ID() != n.ID() || pn.Level() != n.Level() || pn.NumEntries() != n.NumEntries() {
						t.Fatalf("node %d pass %d: packed header (%d,%d,%d), legacy (%d,%d,%d)",
							id, pass, pn.ID(), pn.Level(), pn.NumEntries(), n.ID(), n.Level(), n.NumEntries())
					}
					for i := 0; i < n.NumEntries(); i++ {
						ptr, rect, aux := n.Entry(i)
						if got := pn.EntryPtr(i); got != ptr {
							t.Fatalf("node %d entry %d: packed ptr %d, legacy %d", id, i, got, ptr)
						}
						prect := pn.EntryRectInto(i, lo, hi)
						if !prect.Equal(rect) {
							t.Fatalf("node %d entry %d: packed rect %v, legacy %v", id, i, prect, rect)
						}
						if !bytes.Equal(pn.EntryAux(i), aux) {
							t.Fatalf("node %d entry %d: packed aux %x, legacy %x", id, i, pn.EntryAux(i), aux)
						}
					}
					// Byte-for-byte round trip against the persisted encoding:
					// the pinned image is exactly the prefix storeNode wrote.
					img := pn.Bytes()
					raw, err := disk.ReadRun(id, tree.blocksForLevel(pn.Level()))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(img, raw[:len(img)]) {
						t.Fatalf("node %d pass %d: pinned image diverges from device bytes", id, pass)
					}
				}
			})
			if nodes != tree.NumNodes() {
				t.Fatalf("walked %d nodes, tree reports %d", nodes, tree.NumNodes())
			}
		})
	}
}

func newFileDisk(t *testing.T) *storage.Disk {
	t.Helper()
	d, err := storage.CreateFileDisk(filepath.Join(t.TempDir(), "tree.db"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestPackedVerifyReparsesAfterMissedInvalidation forces the stale-cache
// case: mutate the device image behind the cache's back and check the next
// hit reparses instead of serving the pinned entries. The write stamps the
// block, so the hit cannot be charged and re-reads. Under checksum framing
// the hit always re-reads, so a raw frame corrupted beneath the framing
// surfaces as a typed checksum error instead.
func TestPackedVerifyReparsesAfterMissedInvalidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(t *testing.T) storage.Device
	}{
		{"Disk", func(*testing.T) storage.Device { return storage.NewDisk(4096) }},
		{"FileDisk", func(t *testing.T) storage.Device { return newFileDisk(t) }},
		{"Checksum(FileDisk)", func(t *testing.T) storage.Device { return storage.NewChecksumDisk(newFileDisk(t)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := tc.mk(t)
			tree, err := New(dev, Config{MaxEntries: 4})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := tree.Insert(uint64(i+1), geo.PointRect(geo.NewPoint(float64(i), float64(i))), nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			root, err := tree.Root()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tree.LoadPacked(root.ID()); err != nil {
				t.Fatal(err)
			}
			if cd, ok := dev.(*storage.ChecksumDisk); ok {
				frame, err := cd.Under().Read(root.ID())
				if err != nil {
					t.Fatal(err)
				}
				frame[nodeHeaderSize] ^= 0x7f
				if err := cd.Under().Write(root.ID(), frame); err != nil {
					t.Fatal(err)
				}
				_, err = tree.LoadPacked(root.ID())
				var ce *storage.CorruptBlockError
				if !errors.As(err, &ce) || ce.Block != root.ID() {
					t.Fatalf("hit after raw frame corruption: err = %v, want *CorruptBlockError on block %d", err, root.ID())
				}
				return
			}
			// Rewrite entry 0's pointer directly on the device, bypassing
			// storeNode (and therefore the invalidation hook).
			raw, err := dev.Read(root.ID())
			if err != nil {
				t.Fatal(err)
			}
			raw[nodeHeaderSize] = 0x7f
			if err := dev.Write(root.ID(), raw); err != nil {
				t.Fatal(err)
			}
			pn, err := tree.LoadPacked(root.ID())
			if err != nil {
				t.Fatal(err)
			}
			if got := pn.EntryPtr(0); got != 0x7f {
				t.Fatalf("hit served stale pointer %d after device mutation, want reparse to 0x7f", got)
			}
		})
	}
}

// readCounter is a Disk that counts ReadRunInto calls, so a test can tell a
// charged cache hit from a re-read.
type readCounter struct {
	*storage.Disk
	reads int
}

func (d *readCounter) ReadRunInto(id storage.BlockID, n int, dst []byte) error {
	d.reads++
	return d.Disk.ReadRunInto(id, n, dst)
}

// TestWarmSeekChargesWithoutReading: once a Seek has pinned every node it
// expands, an identical Seek moves no bytes (zero ReadRunInto calls) and
// still charges the device exactly what the same Seek costs on a tree with
// no cache, single- and multi-block nodes alike.
func TestWarmSeekChargesWithoutReading(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme AuxScheme
		maxE   int
		sig    func(level int) *sigfile.Sig64
	}{
		{"aux4", orScheme{n: 4}, 3, levelSig(bitsAt(4, 1, 1), bitsAt(4, 1))},
		{"multiblock", bigScheme{orScheme{n: 2048}}, 4, levelSig(bitsAt(2048, 1, 1), bitsAt(2048, 1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(dev storage.Device, cacheNodes int) *Tree {
				tree, err := New(dev, Config{MaxEntries: tc.maxE, Scheme: tc.scheme, CacheNodes: cacheNodes})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(23))
				for i := 0; i < 200; i++ {
					aux := make([]byte, tc.scheme.EntryAuxLen(0))
					copy(aux, refMask(uint64(i)))
					if err := tree.Insert(uint64(i), geo.PointRect(geo.NewPoint(rng.Float64()*100, rng.Float64()*100)), aux, nil); err != nil {
						t.Fatal(err)
					}
				}
				return tree
			}
			p := geo.NewPoint(40, 60)
			seek := func(tree *Tree) int {
				it := tree.NearestNeighbors(p, tc.sig)
				defer it.Close()
				n := 0
				for {
					_, _, ok, err := it.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						return n
					}
					n++
				}
			}
			counted := &readCounter{Disk: storage.NewDisk(4096)}
			cached := build(counted, 0)
			bare := storage.NewDisk(4096)
			uncached := build(bare, -1)

			want := seek(cached) // warm-up: pins every node the query expands
			counted.ResetStats()
			counted.reads = 0
			if got := seek(cached); got != want || got == 0 {
				t.Fatalf("warm seek returned %d objects, warm-up %d", got, want)
			}
			if counted.reads != 0 {
				t.Fatalf("warm seek made %d ReadRunInto calls, want 0", counted.reads)
			}
			bare.ResetStats()
			seek(uncached)
			if got, want := counted.Stats(), bare.Stats(); got != want || got.RandomReads+got.SequentialReads == 0 {
				t.Fatalf("warm seek charged %+v, uncached tree %+v", got, want)
			}
		})
	}
}

// TestCacheInvalidatedOnMutation checks the normal invalidation path: after
// an insert rewrites nodes, a packed load sees the new entries.
func TestCacheInvalidatedOnMutation(t *testing.T) {
	tree := newTestTree(t, 8)
	for i := 0; i < 5; i++ {
		if err := tree.Insert(uint64(i+1), geo.PointRect(hotels[i]), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	root, err := tree.Root()
	if err != nil {
		t.Fatal(err)
	}
	before, err := tree.LoadPacked(root.ID())
	if err != nil {
		t.Fatal(err)
	}
	if before.NumEntries() != 5 {
		t.Fatalf("packed root has %d entries, want 5", before.NumEntries())
	}
	if err := tree.Insert(6, geo.PointRect(hotels[5]), nil, nil); err != nil {
		t.Fatal(err)
	}
	after, err := tree.LoadPacked(root.ID())
	if err != nil {
		t.Fatal(err)
	}
	if after.NumEntries() != 6 {
		t.Fatalf("packed root has %d entries after insert, want 6", after.NumEntries())
	}
	st := tree.CacheStats()
	if st.Invalidations == 0 {
		t.Fatalf("no cache invalidations recorded across a mutation: %+v", st)
	}
}

// decodedWalk is the reference the packed Iter is checked against: the same
// best-first search (Figure 3 with Figure 8's keep test) written over decoded
// LoadNode images, as the traversal read nodes before the packed image became
// the only read representation. It keeps that traversal's per-entry order —
// decode the rectangle, score, then the keep test — so it also pins what
// moving the signature test ahead of the decode must not change: the
// emitted sequence, the counters and every trace event.
func decodedWalk(t *testing.T, tree *Tree, scorer entryScorer) (refs []uint64, scores []float64, st TraversalStats, events []TraceEvent) {
	t.Helper()
	var q itemHeap
	var seq uint64
	if tree.root != storage.NilBlock {
		q.push(queueItem{node: tree.root, score: math.Inf(-1)})
		seq = 1
	}
	for len(q) > 0 {
		item := q.pop()
		if item.isObject {
			events = append(events, TraceEvent{Kind: TraceEmit, Child: item.ref, Score: item.score})
			refs, scores = append(refs, item.ref), append(scores, item.score)
			continue
		}
		n, err := tree.LoadNode(item.node)
		if err != nil {
			t.Fatal(err)
		}
		st.NodesLoaded++
		events = append(events, TraceEvent{Kind: TraceExpand, Node: n.ID(), Level: n.Level(), Score: item.score})
		for i := 0; i < n.NumEntries(); i++ {
			ptr, rect, aux := n.Entry(i)
			score, keep := scorer(n.Level() == 0, n.Level(), rect, aux, ptr)
			if !keep {
				st.EntriesPruned++
				events = append(events, TraceEvent{Kind: TracePrune, Node: n.ID(), Child: ptr, Level: n.Level()})
				continue
			}
			qi := queueItem{isObject: n.Level() == 0, score: score, seq: seq}
			seq++
			ev := TraceEvent{Kind: TraceEnqueueNode, Node: n.ID(), Child: ptr, Level: n.Level(), Score: score}
			if qi.isObject {
				st.ObjectsEnqueued++
				qi.ref = ptr
				ev.Kind = TraceEnqueueObject
			} else {
				st.NodesEnqueued++
				qi.node = storage.BlockID(ptr)
			}
			events = append(events, ev)
			q.push(qi)
		}
	}
	return refs, scores, st, events
}

// entryScorer is the per-entry scorer the decoded walk calls: the priority
// of one entry from its kind, its node's level, its MBR, payload and
// pointer, and whether to keep it — the contract the iterator had before it
// scored a node at a time.
type entryScorer func(isObject bool, level int, rect geo.Rect, aux []byte, ptr uint64) (score float64, keep bool)

// perEntry adapts an entryScorer to NodeScorer: it scores a node's
// survivors one at a time in entry order and clears the bit of every entry
// the entry scorer drops, counting them in cleared.
type perEntry struct {
	fn      entryScorer
	lo, hi  geo.Point
	cleared int
}

func newPerEntry(dim int, fn entryScorer) *perEntry {
	return &perEntry{fn: fn, lo: make(geo.Point, dim), hi: make(geo.Point, dim)}
}

func (s *perEntry) ScoreNode(pn *PackedNode, mask []uint64, scores []float64) {
	for i := 0; i < pn.NumEntries(); i++ {
		if mask[i/64]&(1<<(i%64)) == 0 {
			continue
		}
		score, keep := s.fn(pn.Level() == 0, pn.Level(), pn.EntryRectInto(i, s.lo, s.hi), pn.EntryAux(i), pn.EntryPtr(i))
		if !keep {
			mask[i/64] &^= 1 << (i % 64)
			s.cleared++
			continue
		}
		scores[i] = score
	}
}

// levelSig builds a per-level query signature for Seek from one byte-form
// signature per level; levels past the last reuse it.
func levelSig(perLevel ...sigfile.Signature) func(level int) *sigfile.Sig64 {
	sigs := make([]sigfile.Sig64, len(perLevel))
	for i, s := range perLevel {
		sigs[i] = sigfile.MakeSig64(s)
	}
	return func(level int) *sigfile.Sig64 { return &sigs[min(level, len(sigs)-1)] }
}

// firstDiff returns the first index at which got and want differ, or -1.
func firstDiff(got, want []TraceEvent) int {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

// bitsAt returns an n-byte signature with byte i set to b[i].
func bitsAt(n int, b ...byte) sigfile.Signature {
	s := make(sigfile.Signature, n)
	copy(s, b)
	return s
}

// TestPackedIterMatchesDecodedWalk holds the two promises the retired E-X10
// experiment gated, and the ones the signature-first, whole-node expansion
// adds. For random trees with the default cache, a 2-node cache and no cache
// at all, the packed Iter — which tests all of a node's entries' signatures
// at once, before decoding any rectangle — yields the (ref, score) sequence,
// the TraversalStats and the full trace of decodedWalk, which decodes and
// scores first; and the device's random and sequential counters are the
// decoded walk's whether the traversal runs cold, warm or cache-less — disk
// accounting cannot tell cached from uncached. A third pass runs without a
// trace hook, where an expansion visits only its mask's survivors and counts
// the rest as pruned in one step: same sequence, stats and I/O. The scorer's
// own keep test drops every other run of 64 object refs (the leaf
// signatures pass one ref in 64, or in 8) and a band of the rest, so the
// bits it clears mix with the signature's prunes, traced and untraced.
//
// The query signature differs by level, so testing the wrong level's
// signature shows. In the lenmismatch row every interior entry's payload is
// shorter than the interior query signature, whose bits no payload has: the
// only sound answer is "may match" (matchesTolerant), so no subtree may
// be pruned and every node is expanded. The maxE300 tree is bulk loaded, so
// its nodes hold up to 300 entries: a five-word mask, survivors in each word.
func TestPackedIterMatchesDecodedWalk(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme AuxScheme
		maxE   int
		n      int
		bulk   bool
		sig    func(level int) *sigfile.Sig64
	}{
		// Leaves need bit 0 of bytes 0 and 1, interior entries only the
		// first: prunes most objects and some subtrees.
		{"aux4", orScheme{n: 4}, 3, 200, false, levelSig(bitsAt(4, 1, 1), bitsAt(4, 1))},
		{"multiblock", bigScheme{orScheme{n: 2048}}, 4, 200, false, levelSig(bitsAt(2048, 1, 1), bitsAt(2048, 1))},
		{"lenmismatch", orScheme{n: 4}, 3, 200, false, levelSig(bitsAt(4, 1), bitsAt(5, 0xff, 0xff, 0xff, 0xff, 0xff))},
		{"maxE300", orScheme{n: 9}, 300, 1000, true, levelSig(bitsAt(9, 1, 1), bitsAt(9, 1))},
	} {
		for _, cacheNodes := range []int{0, 2, -1} {
			t.Run(fmt.Sprintf("%s/cache=%d", tc.name, cacheNodes), func(t *testing.T) {
				disk := storage.NewDisk(4096)
				tree, err := New(disk, Config{MaxEntries: tc.maxE, Scheme: tc.scheme, CacheNodes: cacheNodes})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(17 + cacheNodes)))
				var bulk []BulkEntry
				for i := 0; i < tc.n; i++ {
					aux := make([]byte, tc.scheme.EntryAuxLen(0))
					copy(aux, refMask(uint64(i)))
					rect := geo.PointRect(geo.NewPoint(rng.Float64()*100, rng.Float64()*100))
					if tc.bulk {
						bulk = append(bulk, BulkEntry{Ref: uint64(i), Rect: rect, Aux: aux})
					} else if err := tree.Insert(uint64(i), rect, aux, nil); err != nil {
						t.Fatal(err)
					}
				}
				if tc.bulk {
					if err := tree.BulkLoad(bulk, nil); err != nil {
						t.Fatal(err)
					}
					widest := 0
					forEachNodeID(t, tree, func(id storage.BlockID) {
						n, err := tree.LoadNode(id)
						if err != nil {
							t.Fatal(err)
						}
						widest = max(widest, n.NumEntries())
					})
					if tree.MaskWords() != 5 || widest <= 4*64 {
						t.Fatalf("%d mask words, widest node %d entries: the last mask word is not exercised",
							tree.MaskWords(), widest)
					}
				}
				p := geo.NewPoint(40, 60)
				scorer := func(isObject bool, level int, rect geo.Rect, aux []byte, ptr uint64) (float64, bool) {
					return rect.MinDist(p), !isObject || ptr/64%2 == 0 && (rect.Lo[0] < 20 || rect.Lo[0] >= 30)
				}
				ref := func(isObject bool, level int, rect geo.Rect, aux []byte, ptr uint64) (float64, bool) {
					score, keep := scorer(isObject, level, rect, aux, ptr)
					return score, keep && matchesTolerant(tc.sig(level), aux)
				}
				disk.ResetStats()
				wantRefs, wantScores, wantStats, wantEvents := decodedWalk(t, tree, ref)
				wantIO := disk.Stats()
				if len(wantRefs) == 0 || wantStats.EntriesPruned == 0 {
					t.Fatalf("degenerate workload: %d results, %+v", len(wantRefs), wantStats)
				}
				if tc.name == "lenmismatch" {
					for _, ev := range wantEvents {
						if ev.Kind == TracePrune && ev.Level > 0 {
							t.Fatalf("reference pruned subtree %d despite a length mismatch", ev.Child)
						}
					}
					if wantStats.NodesLoaded != tree.NumNodes() {
						t.Fatalf("reference expanded %d of %d nodes", wantStats.NodesLoaded, tree.NumNodes())
					}
				}
				for _, pass := range []string{"cold", "warm", "untraced"} {
					disk.ResetStats()
					ns := newPerEntry(2, scorer)
					it := tree.Seek(ns, tc.sig)
					var events []TraceEvent
					if pass != "untraced" {
						it.SetTrace(func(ev TraceEvent) { events = append(events, ev) })
					}
					var refs []uint64
					var scores []float64
					for {
						ref, score, ok, err := it.Next()
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							break
						}
						refs, scores = append(refs, ref), append(scores, score)
					}
					it.Close()
					if !slices.Equal(refs, wantRefs) || !slices.Equal(scores, wantScores) {
						t.Fatalf("%s: packed sequence diverges from the decoded walk\n got %v %v\nwant %v %v",
							pass, refs, scores, wantRefs, wantScores)
					}
					if got := it.TraversalStats(); got != wantStats {
						t.Fatalf("%s: traversal stats %+v, decoded walk %+v", pass, got, wantStats)
					}
					if ns.cleared == 0 {
						t.Fatalf("%s: the scorer cleared no survivor's bit", pass)
					}
					if i := firstDiff(events, wantEvents); i >= 0 && pass != "untraced" {
						t.Fatalf("%s: %d trace events, decoded walk %d; first difference at %d:\n got %v\nwant %v",
							pass, len(events), len(wantEvents), i,
							events[i:min(i+1, len(events))], wantEvents[i:min(i+1, len(wantEvents))])
					}
					if got := disk.Stats(); got.Random() != wantIO.Random() || got.Sequential() != wantIO.Sequential() {
						t.Fatalf("%s: device saw %d random + %d sequential, decoded walk %d + %d",
							pass, got.Random(), got.Sequential(), wantIO.Random(), wantIO.Sequential())
					}
				}
				if st := tree.CacheStats(); (cacheNodes < 0) != (st.Hits+st.Misses == 0) {
					t.Fatalf("cache=%d: cache counters %+v", cacheNodes, st)
				}
			})
		}
	}
}
