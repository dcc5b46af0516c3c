package shard

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"spatialkeyword/internal/geo"
)

// Partitioner assigns objects to shards by location. Implementations must
// be deterministic (the same point always maps to the same shard, across
// process restarts) and safe for concurrent use.
type Partitioner interface {
	// Locate returns the shard index of a point, in [0, Shards()).
	Locate(p geo.Point) int
	// Shards returns the number of shards.
	Shards() int
}

// GridPartitioner partitions space with a uniform grid over the dataset
// MBR: the bounds are cut into gx×gy cells (along the first two axes) and
// cell (cx, cy) maps to shard (cy·gx+cx) mod n. Points outside the bounds
// clamp to the nearest edge cell, so each edge cell's region conceptually
// extends to infinity. It keeps nearby objects on one shard; the grid is the
// default when the data's extent is known.
type GridPartitioner struct {
	bounds geo.Rect
	n      int
	gx, gy int
}

// NewGridPartitioner builds a grid of n shards over the given bounds (the
// dataset MBR, or any box enclosing the hot region — outliers clamp to edge
// cells). The grid is as square as n allows: gx = ⌈√n⌉ columns, gy = ⌈n/gx⌉
// rows. One-dimensional bounds get a 1×n strip.
func NewGridPartitioner(n int, bounds geo.Rect) (*GridPartitioner, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: grid partitioner needs n >= 1, got %d", n)
	}
	if bounds.Dim() == 0 {
		return nil, fmt.Errorf("shard: grid partitioner needs non-empty bounds")
	}
	for i := range bounds.Lo {
		if bounds.Lo[i] > bounds.Hi[i] {
			return nil, fmt.Errorf("shard: inverted bounds on axis %d", i)
		}
	}
	gx := int(math.Ceil(math.Sqrt(float64(n))))
	gy := (n + gx - 1) / gx
	if bounds.Dim() == 1 {
		gx, gy = n, 1
	}
	return &GridPartitioner{bounds: bounds, n: n, gx: gx, gy: gy}, nil
}

// Shards implements Partitioner.
func (g *GridPartitioner) Shards() int { return g.n }

// cell returns the clamped cell coordinate of value v along one axis.
func gridCell(v, lo, hi float64, cells int) int {
	if cells <= 1 || hi <= lo {
		return 0
	}
	c := int(math.Floor((v - lo) / (hi - lo) * float64(cells)))
	if c < 0 {
		c = 0
	}
	if c >= cells {
		c = cells - 1
	}
	return c
}

// Locate implements Partitioner.
func (g *GridPartitioner) Locate(p geo.Point) int {
	cx := gridCell(p[0], g.bounds.Lo[0], g.bounds.Hi[0], g.gx)
	cy := 0
	if g.gy > 1 && p.Dim() > 1 {
		cy = gridCell(p[1], g.bounds.Lo[1], g.bounds.Hi[1], g.gy)
	}
	return (cy*g.gx + cx) % g.n
}

// HashPartitioner spreads points across shards by hashing their
// coordinates (FNV-1a over the IEEE-754 bits). It needs no knowledge of
// the data's extent — the fallback for unbounded or unknown distributions.
type HashPartitioner struct {
	n int
}

// NewHashPartitioner builds a hash partitioner over n shards.
func NewHashPartitioner(n int) (*HashPartitioner, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: hash partitioner needs n >= 1, got %d", n)
	}
	return &HashPartitioner{n: n}, nil
}

// Shards implements Partitioner.
func (h *HashPartitioner) Shards() int { return h.n }

// Locate implements Partitioner.
func (h *HashPartitioner) Locate(p geo.Point) int {
	f := fnv.New64a()
	var buf [8]byte
	for _, v := range p {
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
		f.Write(buf[:]) //nolint:errcheck // hash.Hash never errors
	}
	return int(f.Sum64() % uint64(h.n))
}

// partitionerState is the JSON form a partitioner takes in the sharded
// manifest, so a durable sharded engine reopens with identical routing.
type partitionerState struct {
	Kind   string    `json:"kind"` // "grid" or "hash"
	Shards int       `json:"shards"`
	Lo     []float64 `json:"lo,omitempty"`
	Hi     []float64 `json:"hi,omitempty"`
}

// marshalPartitioner captures a partitioner's state for the manifest.
func marshalPartitioner(p Partitioner) (partitionerState, error) {
	switch t := p.(type) {
	case *GridPartitioner:
		return partitionerState{Kind: "grid", Shards: t.n, Lo: t.bounds.Lo, Hi: t.bounds.Hi}, nil
	case *HashPartitioner:
		return partitionerState{Kind: "hash", Shards: t.n}, nil
	default:
		return partitionerState{}, fmt.Errorf("shard: partitioner %T is not persistable", p)
	}
}

// unmarshalPartitioner restores a partitioner from its manifest state.
func unmarshalPartitioner(st partitionerState) (Partitioner, error) {
	switch st.Kind {
	case "grid":
		return NewGridPartitioner(st.Shards, geo.Rect{Lo: st.Lo, Hi: st.Hi})
	case "hash":
		return NewHashPartitioner(st.Shards)
	default:
		return nil, fmt.Errorf("shard: unknown partitioner kind %q", st.Kind)
	}
}
