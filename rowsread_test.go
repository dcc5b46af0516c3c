package spatialkeyword_test

import (
	"fmt"
	"testing"

	"spatialkeyword"
)

// pullCounter wraps a stream for FirstK and records the key of every
// result FirstK pulls, in pull order.
type pullCounter[R spatialkeyword.Result | spatialkeyword.RankedResult] struct {
	s interface {
		Next() (R, bool, error)
		PeekBound() (float64, bool)
		Settle() error
	}
	key  func(R) float64
	keys []float64
}

func (c *pullCounter[R]) Next() (R, bool, error) {
	r, ok, err := c.s.Next()
	if ok {
		c.keys = append(c.keys, c.key(r))
	}
	return r, ok, err
}

func (c *pullCounter[R]) PeekBound() (float64, bool) { return c.s.PeekBound() }

func (c *pullCounter[R]) Settle() error { return c.s.Settle() }

// checkReads fails unless the stream read exactly the rows it returned and
// every result FirstK pulled past the k-th ties the k-th key exactly.
func checkReads(t *testing.T, what string, k int, keys []float64, st spatialkeyword.QueryStats) {
	t.Helper()
	if st.ObjectsLoaded != len(keys) {
		t.Errorf("%s: read %d rows for %d returned (%d false positives)", what, st.ObjectsLoaded, len(keys), st.FalsePositives)
	}
	for i := k; i < len(keys); i++ {
		if keys[i] != keys[k-1] {
			t.Errorf("%s: pulled result %d has key %v, past the k-th key %v", what, i+1, keys[i], keys[k-1])
		}
	}
}

// TestRowsReadEqualRowsReturned: a query reads a row only to return it. On
// every lifecycle arm — a single engine and 1 and 4 shards with rows queued
// beside the packed tree, reopen, a write-ahead log replayed onto a
// snapshot, a follower — and with deletes, the distance-first, area and
// ranked streams cut by FirstK, and the range query, read exactly the rows
// they return: signature false positives are dropped and ranked candidates
// scored from the engine's row table, and FirstK's tie check reads only
// results that tie the k-th key. 8-byte signatures saturate on Hotels rows,
// so nearly every leaf entry is a false positive of the conjunctive query.
func TestRowsReadEqualRowsReturned(t *testing.T) {
	rows, frequent, mid := oracleRows(t)
	arms := lifecycleArms(rows, oracleDeletes(rows))
	for _, cfg := range []spatialkeyword.Config{
		{SignatureBytes: 8},
		{SignatureBytes: 189, BlockSize: 512},
	} {
		for _, a := range arms {
			t.Run(fmt.Sprintf("%s/sig=%d", a.name, cfg.SignatureBytes), func(t *testing.T) {
				r := a.open(t, cfg)
				for qi := 0; qi < 6; qi++ {
					p := rows[(2*qi+1)*len(rows)/12].Point
					if qi == 5 {
						p = rows[len(rows)-3].Point // beside the queued rows
					}
					conj := []string{frequent[qi%len(frequent)], mid[qi]}
					ranked := []string{frequent[(qi+1)%len(frequent)], mid[qi*7+3], mid[qi+2]}
					lo := []float64{p[0] - 60, p[1] - 60}
					hi := []float64{p[0] + 60, p[1] + 60}
					for _, k := range []int{1, 10} {
						s, err := r.Search(p, conj...)
						if err != nil {
							t.Fatal(err)
						}
						c := &pullCounter[spatialkeyword.Result]{s: s, key: func(r spatialkeyword.Result) float64 { return r.Dist }}
						if _, err := spatialkeyword.FirstK(nil, c, k, nil); err != nil {
							t.Fatal(err)
						}
						s.Close()
						checkReads(t, fmt.Sprintf("Search(%v, %v) k=%d", p, conj, k), k, c.keys, s.Stats())

						s, err = r.SearchArea(lo, hi, frequent[qi%len(frequent)])
						if err != nil {
							t.Fatal(err)
						}
						c = &pullCounter[spatialkeyword.Result]{s: s, key: func(r spatialkeyword.Result) float64 { return r.Dist }}
						if _, err := spatialkeyword.FirstK(nil, c, k, nil); err != nil {
							t.Fatal(err)
						}
						s.Close()
						checkReads(t, fmt.Sprintf("SearchArea(%v, %v) k=%d", lo, hi, k), k, c.keys, s.Stats())

						rs, err := r.SearchRanked(p, ranked...)
						if err != nil {
							t.Fatal(err)
						}
						rc := &pullCounter[spatialkeyword.RankedResult]{s: rs, key: func(r spatialkeyword.RankedResult) float64 { return r.Score }}
						if _, err := spatialkeyword.FirstK(nil, rc, k, nil); err != nil {
							t.Fatal(err)
						}
						rs.Close()
						checkReads(t, fmt.Sprintf("SearchRanked(%v, %v) k=%d", p, ranked, k), k, rc.keys, rs.Stats())
					}
					res, st, err := r.WithinArea(lo, hi, conj...)
					if err != nil {
						t.Fatal(err)
					}
					if st.ObjectsLoaded != len(res) {
						t.Errorf("WithinArea(%v, %v, %v): read %d rows for %d returned", lo, hi, conj, st.ObjectsLoaded, len(res))
					}
				}
			})
		}
	}
}
