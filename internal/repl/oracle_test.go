package repl

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/shard"
)

// The replication oracle: after draining the stream, an eventual-mode
// follower must answer every query exactly as the leader does — same IDs,
// same distances, same ranks — across single and sharded (grid and hash
// partitioned) leaders, under mixed Add/Delete churn with rotations in the
// middle.

var oracleWords = []string{"coffee", "pizza", "sushi", "bar", "museum", "park", "bank", "hotel"}

// churn drives deterministic mixed traffic into add/del closures.
func churn(t *testing.T, rng *rand.Rand, n int, add func([]float64, string) (uint64, error), del func(uint64) error) {
	t.Helper()
	var live []uint64
	for i := 0; i < n; i++ {
		if len(live) > 4 && rng.Intn(5) == 0 {
			j := rng.Intn(len(live))
			if err := del(live[j]); err != nil {
				t.Fatalf("churn delete %d: %v", live[j], err)
			}
			live = append(live[:j], live[j+1:]...)
			continue
		}
		point := []float64{rng.Float64() * 100, rng.Float64() * 100}
		text := fmt.Sprintf("%s %s spot %d",
			oracleWords[rng.Intn(len(oracleWords))], oracleWords[rng.Intn(len(oracleWords))], i)
		id, err := add(point, text)
		if err != nil {
			t.Fatalf("churn add %d: %v", i, err)
		}
		live = append(live, id)
	}
}

// queryOracle compares TopK and TopKRanked between leader and follower over
// a deterministic probe set.
func queryOracle(t *testing.T, rng *rand.Rand, lead, repl oracleEngine) {
	t.Helper()
	for probe := 0; probe < 20; probe++ {
		point := []float64{rng.Float64() * 100, rng.Float64() * 100}
		k := 1 + rng.Intn(10)
		kws := []string{oracleWords[rng.Intn(len(oracleWords))]}
		if rng.Intn(2) == 0 {
			kws = append(kws, oracleWords[rng.Intn(len(oracleWords))])
		}

		want, _, err := lead.TopKWithStats(k, point, kws...)
		if err != nil {
			t.Fatalf("leader TopK: %v", err)
		}
		got, _, err := repl.TopKWithStats(k, point, kws...)
		if err != nil {
			t.Fatalf("follower TopK: %v", err)
		}
		if len(want) != len(got) {
			t.Fatalf("probe %d: follower %d results, leader %d", probe, len(got), len(want))
		}
		for i := range want {
			if want[i].Object.ID != got[i].Object.ID || want[i].Dist != got[i].Dist {
				t.Fatalf("probe %d result %d: follower %+v, leader %+v", probe, i, got[i], want[i])
			}
		}

		wantR, err := lead.TopKRanked(k, point, kws...)
		if err != nil {
			t.Fatalf("leader TopKRanked: %v", err)
		}
		gotR, err := repl.TopKRanked(k, point, kws...)
		if err != nil {
			t.Fatalf("follower TopKRanked: %v", err)
		}
		if len(wantR) != len(gotR) {
			t.Fatalf("probe %d ranked: follower %d results, leader %d", probe, len(gotR), len(wantR))
		}
		for i := range wantR {
			if wantR[i].Object.ID != gotR[i].Object.ID || wantR[i].Score != gotR[i].Score {
				t.Fatalf("probe %d ranked %d: follower %+v, leader %+v", probe, i, gotR[i], wantR[i])
			}
		}
	}
}

type oracleEngine interface {
	TopKWithStats(int, []float64, ...string) ([]spatialkeyword.Result, spatialkeyword.QueryStats, error)
	TopKRanked(int, []float64, ...string) ([]spatialkeyword.RankedResult, error)
}

func TestOracleSingleEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e, l, srv := newLeaderEngine(t, t.TempDir())

	churn(t, rng, 120, e.Add, e.Delete)
	f, err := OpenFollower(t.TempDir(), srv.URL, Options{})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	if err := e.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	churn(t, rng, 120, e.Add, e.Delete)
	drain(t, f, l)
	queryOracle(t, rng, e, f)
}

func testOracleSharded(t *testing.T, opts shard.Options) {
	rng := rand.New(rand.NewSource(11))
	ldir := t.TempDir()
	s, err := shard.NewDurable(spatialkeyword.Config{WAL: true}, ldir, opts)
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	l := NewLeader(s)
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	churn(t, rng, 150, s.Add, s.Delete)
	if err := s.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	churn(t, rng, 50, s.Add, s.Delete)

	f, err := OpenFollower(t.TempDir(), srv.URL, Options{})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	drain(t, f, l)
	queryOracle(t, rng, s, f)

	// More churn with a mid-stream rotation, then re-verify: the follower
	// must track the generation handoffs shard by shard.
	churn(t, rng, 80, s.Add, s.Delete)
	if err := s.Save(); err != nil {
		t.Fatalf("second Save: %v", err)
	}
	churn(t, rng, 40, s.Add, s.Delete)
	drain(t, f, l)
	queryOracle(t, rng, s, f)

	if f.Stats().Objects != s.Stats().Objects {
		t.Fatalf("follower holds %d objects, leader %d", f.Stats().Objects, s.Stats().Objects)
	}
}

func TestOracleShardedGrid(t *testing.T) {
	testOracleSharded(t, shard.Options{
		Shards: 4,
		Bounds: geo.NewRect(geo.Point{0, 0}, geo.Point{100, 100}),
	})
}

func TestOracleShardedHash(t *testing.T) {
	testOracleSharded(t, shard.Options{Shards: 3})
}

// TestOracleWaitForIsReadYourWrites pins the RYW contract: a write's
// position token, awaited on the follower, guarantees the write is visible
// there.
func TestOracleWaitForIsReadYourWrites(t *testing.T) {
	e, l, srv := newLeaderEngine(t, t.TempDir())
	f, err := OpenFollower(t.TempDir(), srv.URL, Options{})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close() //nolint:errcheck // test teardown

	for i := 0; i < 30; i++ {
		id, err := e.Add([]float64{float64(i), 1}, fmt.Sprintf("ryw object %d", i))
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		tok := l.PositionToken()
		if err := f.WaitFor(tok, 5*time.Second); err != nil {
			t.Fatalf("WaitFor(%q): %v", tok, err)
		}
		if _, err := f.Get(id); err != nil {
			t.Fatalf("read-your-writes violated for object %d: %v", id, err)
		}
	}
}
