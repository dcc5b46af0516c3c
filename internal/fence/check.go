package fence

import "fmt"

// Check validates the registry's internal invariants: the R-Tree and the
// fence map hold exactly the same (id, bounds) pairs, the tree structure
// is sound, every matched list is sorted by (dist, id) without duplicate
// ids, and history sequences are contiguous. It exists for tests and the
// fuzz target; a production registry never calls it.
func (r *Registry) Check() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if err := r.tree.check(); err != nil {
		return err
	}
	if r.tree.len() != len(r.fences) {
		return fmt.Errorf("fence: tree has %d entries, registry %d fences", r.tree.len(), len(r.fences))
	}
	for id, f := range r.fences {
		if f.id != id {
			return fmt.Errorf("fence: fence %d stored under id %d", f.id, id)
		}
		found := false
		r.tree.searchPoint(f.bound.Lo, func(got uint64) {
			if got == id {
				found = true
			}
		})
		if !found {
			return fmt.Errorf("fence: fence %d missing from tree", id)
		}
		seen := make(map[uint64]struct{}, len(f.matched))
		for i, m := range f.matched {
			if _, dup := seen[m.id]; dup {
				return fmt.Errorf("fence: fence %d tracks object %d twice", id, m.id)
			}
			seen[m.id] = struct{}{}
			if i > 0 {
				prev := f.matched[i-1]
				if prev.dist > m.dist || (prev.dist == m.dist && prev.id >= m.id) {
					return fmt.Errorf("fence: fence %d matched list unsorted at %d", id, i)
				}
			}
		}
		for i := 1; i < len(f.hist); i++ {
			// The ring is contiguous in sequence space except at the
			// wrap point (histPos), where the oldest event follows the
			// newest.
			if i == f.histPos && len(f.hist) == historyLen {
				continue
			}
			if f.hist[i].Seq != f.hist[i-1].Seq+1 {
				return fmt.Errorf("fence: fence %d history gap at %d", id, i)
			}
		}
	}
	return nil
}
