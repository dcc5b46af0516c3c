package main

import (
	"math"
	"sort"
	"strings"
)

// model is the driver's own picture of the live objects. One connection
// sends one request at a time, so applying every acknowledged add and
// delete in send order keeps it exactly in step with the server.
type model struct {
	points   [][2]float64
	texts    []string
	dead     []bool
	postings map[string][]uint64 // word → IDs in ascending order
	// liveBytes is Σ(len(text)+16) over live objects: the user data that
	// space amplification is measured against.
	liveBytes int64
}

func newModel(c *corpus) *model {
	m := &model{postings: make(map[string][]uint64)}
	for _, o := range c.objects {
		m.add(uint64(len(m.texts)), o.point, o.text)
	}
	return m
}

// add records an acknowledged insert. IDs are assigned densely by the
// server, so id always equals the current length.
func (m *model) add(id uint64, point [2]float64, text string) bool {
	if id != uint64(len(m.texts)) {
		return false
	}
	m.points = append(m.points, point)
	m.texts = append(m.texts, text)
	m.dead = append(m.dead, false)
	seen := map[string]bool{}
	for _, w := range strings.Fields(text) {
		if !seen[w] {
			seen[w] = true
			m.postings[w] = append(m.postings[w], id)
		}
	}
	m.liveBytes += int64(len(text)) + 16
	return true
}

func (m *model) remove(id uint64) {
	if id < uint64(len(m.dead)) && !m.dead[id] {
		m.dead[id] = true
		m.liveBytes -= int64(len(m.texts[id])) + 16
	}
}

func (m *model) has(id uint64, word string) bool {
	p := m.postings[word]
	i := sort.Search(len(p), func(i int) bool { return p[i] >= id })
	return i < len(p) && p[i] == id
}

// matches evaluates the op's keyword predicate on one object.
func (m *model) matches(o *op, id uint64) bool {
	if m.dead[id] {
		return false
	}
	if o.form == matchOrAndNot {
		return m.has(id, o.words[0]) || (m.has(id, o.words[1]) && !m.has(id, o.words[2]))
	}
	for _, w := range o.words {
		if !m.has(id, w) {
			return false
		}
	}
	return true
}

// candidates returns a superset of the op's matches: the postings of the
// words a match must contain one of.
func (m *model) candidates(o *op) []uint64 {
	if o.form == matchOrAndNot {
		return append(append([]uint64(nil), m.postings[o.words[0]]...), m.postings[o.words[1]]...)
	}
	best := m.postings[o.words[0]]
	for _, w := range o.words[1:] {
		if p := m.postings[w]; len(p) < len(best) {
			best = p
		}
	}
	return best
}

// expectCount is the brute-force answer of a COUNT ... WITHIN rect op.
func (m *model) expectCount(o *op) int {
	n := 0
	for _, id := range m.candidates(o) {
		p := m.points[id]
		if p[0] >= o.rect[0] && p[1] >= o.rect[1] && p[0] <= o.rect[2] && p[1] <= o.rect[3] && m.matches(o, id) {
			n++
		}
	}
	return n
}

// expectTopK is the brute-force answer of a distance-first op: matching
// live objects by ascending (distance, ID), first k.
func (m *model) expectTopK(o *op) []uint64 {
	type hit struct {
		id   uint64
		dist float64
	}
	var hits []hit
	seen := map[uint64]bool{}
	for _, id := range m.candidates(o) {
		if seen[id] || !m.matches(o, id) {
			continue
		}
		seen[id] = true
		p := m.points[id]
		hits = append(hits, hit{id, math.Hypot(p[0]-o.point[0], p[1]-o.point[1])})
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].dist != hits[b].dist {
			return hits[a].dist < hits[b].dist
		}
		return hits[a].id < hits[b].id
	})
	if len(hits) > o.k {
		hits = hits[:o.k]
	}
	ids := make([]uint64, len(hits))
	for i, h := range hits {
		ids[i] = h.id
	}
	return ids
}

func sameIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
