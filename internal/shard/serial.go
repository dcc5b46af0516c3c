package shard

import (
	"spatialkeyword"
)

// Serial (coordinated) top-k merge.
//
// TopK and TopKRanked free-run one goroutine per shard: each shard drains
// its stream until the shared threshold proves it useless. That maximizes
// wall-clock overlap, but a shard scheduled ahead of the others can emit up
// to k speculative results before the threshold tightens — wasted I/O that
// a coordinated execution would not issue. TopKSerial and TopKRankedSerial
// are the coordinated counterparts: a sequential best-first k-way merge
// that pulls one result at a time from the shard whose next candidate has
// the best bound (smallest distance, or highest score). Per device, this is
// the minimum I/O any exact merge can do — a shard is only advanced while
// its bound could still beat the global k-th result — so the cost-model
// benchmark (internal/bench.ShardedDiskScaling) meters these to report what
// the sharded layout costs per device without the scheduler's speculation.
//
// Results are identical to TopK/TopKRanked: both feed the same collector,
// and the serial pull order is one of the interleavings the parallel drain
// admits (see merge.go — the collector's result set is
// interleaving-independent).

// TopKSerial returns exactly TopK's results via the coordinated best-first
// merge. All shards are read-locked for the duration of the merge.
func (s *ShardedEngine) TopKSerial(k int, point []float64, keywords ...string) ([]spatialkeyword.Result, error) {
	if k <= 0 {
		return nil, nil
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
	}
	iters := make([]streamIter, len(s.shards))
	for i, sh := range s.shards {
		if sh.eng == nil {
			continue // unavailable shard: serial merges skip it (degraded)
		}
		it, err := sh.eng.Search(point, keywords...)
		if err != nil {
			return nil, err
		}
		defer it.Close()
		iters[i] = it
	}
	col := newCollector(k, true)
	if err := s.serialMergeDistance(iters, col); err != nil {
		return nil, err
	}
	return distanceResults(col), nil
}

// serialMergeDistance pulls from the shard with the smallest bound until no
// shard's next candidate can beat the global k-th result.
func (s *ShardedEngine) serialMergeDistance(iters []streamIter, col *collector) error {
	for {
		best := -1
		var bestBound float64
		for i, it := range iters {
			if it == nil {
				continue
			}
			b, ok := it.PeekBound()
			if !ok {
				iters[i] = nil
				continue
			}
			if best < 0 || b < bestBound {
				best, bestBound = i, b
			}
		}
		if best < 0 || !col.admissible(bestBound) {
			return nil // every remaining bound is >= bestBound
		}
		r, ok, err := iters[best].Next()
		if err != nil {
			return err
		}
		if !ok {
			iters[best] = nil
			continue
		}
		col.offer(r.Dist, s.shards[best].globals[r.Object.ID], r)
	}
}

// TopKRankedSerial returns exactly TopKRanked's results via the coordinated
// best-first merge (highest score bound pulls first).
func (s *ShardedEngine) TopKRankedSerial(k int, point []float64, keywords ...string) ([]spatialkeyword.RankedResult, error) {
	if k <= 0 {
		return nil, nil
	}
	cs := s.corpusStats()
	for _, sh := range s.shards {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
	}
	iters := make([]*spatialkeyword.RankedSearchIter, len(s.shards))
	for i, sh := range s.shards {
		if sh.eng == nil {
			continue // unavailable shard: serial merges skip it (degraded)
		}
		it, err := sh.eng.SearchRankedWith(cs, point, keywords...)
		if err != nil {
			return nil, err
		}
		defer it.Close()
		iters[i] = it
	}
	col := newCollector(k, false)
	for {
		best := -1
		var bestBound float64
		for i, it := range iters {
			if it == nil {
				continue
			}
			b, ok := it.PeekBound()
			if !ok {
				iters[i] = nil
				continue
			}
			if best < 0 || b > bestBound {
				best, bestBound = i, b
			}
		}
		if best < 0 || !col.admissible(bestBound) {
			break
		}
		r, ok, err := iters[best].Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			iters[best] = nil
			continue
		}
		col.offer(r.Score, s.shards[best].globals[r.Object.ID], r)
	}
	items := col.results()
	out := make([]spatialkeyword.RankedResult, 0, len(items))
	for _, it := range items {
		r := it.val.(spatialkeyword.RankedResult)
		r.Object.ID = it.id
		out = append(out, r)
	}
	return out, nil
}
