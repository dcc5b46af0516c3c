package spatialkeyword_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"spatialkeyword"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/skql"
)

// tieCorpus is a corpus built for exact ties: 40 copies of each of twelve
// points on three rings around (500, 500), four points per ring at the same
// distance from the centre, IDs dealt round-robin over the points. A ring
// holds 160 objects at one distance from the centre, more than a leaf holds,
// and its four points hash to different shards; the texts repeat, so equal
// distances give equal ranked scores too. Scattered rows around the rings
// give the tree more than one level.
func tieCorpus() []spatialkeyword.Object {
	var points [][]float64
	for _, r := range []float64{10, 20, 30} {
		points = append(points, []float64{500 + r, 500}, []float64{500 - r, 500}, []float64{500, 500 + r}, []float64{500, 500 - r})
	}
	texts := []string{"pizza", "pizza cafe", "cafe bar"}
	var rows []spatialkeyword.Object
	add := func(p []float64, text string) {
		rows = append(rows, spatialkeyword.Object{ID: uint64(len(rows)), Point: p, Text: text})
	}
	for i := 0; i < 40*len(points); i++ {
		add(points[i%len(points)], texts[i/len(points)%len(texts)])
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		add([]float64{500 + rng.NormFloat64()*200, 500 + rng.NormFloat64()*200}, texts[rng.Intn(len(texts))])
	}
	return rows
}

// TestTopKTiesBreakBySmallestID: on a corpus of exact distance and score
// ties, every top-k — a single engine's TopK, TopKWithStats and TopKRanked,
// the same on one and four hash shards, and SKQL's TOP on every path and
// RANKED over each — returns the brute-force answer: ordered by key, ties by
// smallest ID.
func TestTopKTiesBreakBySmallestID(t *testing.T) {
	rows := tieCorpus()
	cfg := spatialkeyword.Config{SignatureBytes: 16}
	one, err := shard.New(cfg, shard.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := shard.New(cfg, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	single, err := spatialkeyword.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &diffModel{rows: rows, deleted: map[uint64]bool{}}
	for name, e := range map[string]backend{"engine": single, "1 shard": one, "4 shards": four} {
		for _, o := range rows {
			if _, err := e.Add(o.Point, o.Text); err != nil {
				t.Fatal(err)
			}
		}
		cat := skql.NewCatalog(e)
		// The centre, equidistant from each ring's points, and a ring point,
		// 40 objects at distance zero.
		for _, p := range [][]float64{{500, 500}, {510, 500}} {
			for _, kws := range [][]string{{"pizza"}, {"pizza", "cafe"}} {
				for k := 1; k <= 5; k++ {
					label := fmt.Sprintf("%s k=%d %v %v", name, k, p, kws)
					wantTop := m.topK(k, p, kws)
					top, err := e.TopK(k, p, kws...)
					if err != nil {
						t.Fatal(err)
					}
					withStats, _, err := e.TopKWithStats(k, p, kws...)
					if err != nil {
						t.Fatal(err)
					}
					for call, got := range map[string][]spatialkeyword.Result{"TopK": top, "TopKWithStats": withStats} {
						if !reflect.DeepEqual(ids(got), wantTop) {
							t.Errorf("%s: %s = %v, brute force %v", label, call, ids(got), wantTop)
						}
					}
					ranked, err := e.TopKRanked(k, p, kws...)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := rankedIDs(ranked), m.ranked(e.Corpus(), k, p, kws, false); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: TopKRanked = %v, brute force %v", label, got, want)
					}

					match := "MATCH " + kws[0]
					if len(kws) > 1 {
						match += " AND " + kws[1]
					}
					wantRanked := m.ranked(e.Corpus(), k, p, kws, true)
					for _, stmt := range []struct {
						proj, using string
						want        []uint64
					}{
						{"TOP", "USING ir2", wantTop},
						{"TOP", "USING rtree", wantTop},
						{"TOP", "USING iio", wantTop},
						{"RANKED", "", wantRanked},
					} {
						src := fmt.Sprintf("SELECT %s %d NEAR (%v, %v) %s %s", stmt.proj, k, p[0], p[1], match, stmt.using)
						q, err := skql.Parse(src)
						if err != nil {
							t.Fatal(err)
						}
						rs, err := cat.Run(q)
						if err != nil {
							t.Fatalf("%s: %v", src, err)
						}
						if got := append(ids(rs.Results), rankedIDs(rs.Ranked)...); !reflect.DeepEqual(got, stmt.want) {
							t.Errorf("%s: %s = %v, brute force %v", name, src, got, stmt.want)
						}
					}
				}
			}
		}
	}
}
