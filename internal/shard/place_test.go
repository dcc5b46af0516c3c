package shard

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"spatialkeyword/internal/geo"
	"spatialkeyword/internal/storage"
	"spatialkeyword/internal/wal"
)

// placement is both directions of the global↔local translation.
type placement struct {
	Assign  []shardLoc
	Globals [][]uint64
}

func placementOf(s *ShardedEngine) placement {
	p := placement{Assign: append([]shardLoc(nil), s.assign...)}
	for _, sh := range s.shards {
		p.Globals = append(p.Globals, append([]uint64(nil), sh.globals...))
	}
	return p
}

// TestPlacementRoutesAgree drives one program through the three callers of
// place — a local Add, ApplyReplicatedBatch on a replica and the replay of a
// crash-reopen — and requires the same global assignment from each, with a
// reserved-then-failed global ID a tombstone on all three and a replicated
// record that claims a live ID refused as corruption.
func TestPlacementRoutesAgree(t *testing.T) {
	checkGoroutines(t)
	const shards, victim = 3, 1
	leaderDir := t.TempDir()
	leader, err := NewDurable(walShardConfig(), leaderDir, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]wal.Record, shards)
	leader.SetReplicationHooks(func(shard int, _ uint64, rec wal.Record) {
		streams[shard] = append(streams[shard], rec)
	}, nil)
	// pointFor finds the i-th point of a fixed walk that lands (or does not
	// land) on the victim shard.
	next := 0
	pointFor := func(onVictim bool) []float64 {
		for {
			p := []float64{float64(next % 17), float64(next / 17)}
			next++
			if (leader.part.Locate(geo.NewPoint(p...)) == victim) == onVictim {
				return p
			}
		}
	}
	add := func(p []float64) uint64 {
		t.Helper()
		gid, err := leader.Add(p, fmt.Sprintf("poi at %v", p))
		if err != nil {
			t.Fatal(err)
		}
		return gid
	}
	for i := 0; i < 12; i++ {
		add(pointFor(i%3 == 0))
	}
	if err := leader.Delete(2); err != nil {
		t.Fatal(err)
	}
	// One add fails on its way into the victim's log: its global ID stays
	// reserved and must never resolve, here or on any copy.
	leader.InjectShardFault(victim, func(op storage.Op, id storage.BlockID) error {
		if op == storage.OpWrite {
			return &storage.FaultError{Kind: storage.KindWriteError, Op: op, Block: id}
		}
		return nil
	})
	dead := uint64(leader.NumObjects())
	if _, err := leader.Add(pointFor(true), "never logged"); err == nil {
		t.Fatal("add over a failing log succeeded")
	}
	leader.InjectShardFault(victim, nil)
	for i := 0; i < 5; i++ {
		add(pointFor(false))
	}
	want := placementOf(leader)
	if want.Assign[dead] != tombstone {
		t.Fatalf("failed add's global id %d is %+v on the leader, want a tombstone", dead, want.Assign[dead])
	}

	// The replica gets the streams one whole shard after another, so the
	// first leaves gaps the later ones resurrect.
	replica, err := NewDurable(walShardConfig(), t.TempDir(), Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	for shard, recs := range streams {
		if err := replica.ApplyReplicatedBatch(shard, recs); err != nil {
			t.Fatalf("stream %d: %v", shard, err)
		}
	}
	if got := placementOf(replica); !reflect.DeepEqual(got, want) {
		t.Errorf("replicated placement differs:\n got %+v\nwant %+v", got, want)
	}
	live := streams[0][0]
	clash := wal.Record{Seq: uint64(len(streams[victim]) + 1), Op: wal.OpAdd, ID: uint64(len(want.Globals[victim])),
		Tag: live.Tag, Point: live.Point, Text: "claims a live id"}
	if err := replica.ApplyReplicatedBatch(victim, []wal.Record{clash}); !errors.Is(err, errCorruptShard) {
		t.Errorf("record re-assigning live global id %d: err = %v, want errCorruptShard", live.Tag, err)
	}
	if got := placementOf(replica); !reflect.DeepEqual(got, want) {
		t.Errorf("the refused record changed the placement:\n got %+v\nwant %+v", got, want)
	}

	// Crash the leader: its manifest is the empty one NewDurable committed,
	// so the whole assignment comes back from the shards' logs.
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := placementOf(reopened); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed placement differs:\n got %+v\nwant %+v", got, want)
	}
}
