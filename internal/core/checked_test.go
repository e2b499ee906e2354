package core

import (
	"strings"
	"testing"

	"fastcc/internal/coo"
	"fastcc/internal/hashtable"
	"fastcc/internal/lockcheck"
	"fastcc/internal/mempool"
)

// TestShardGenerationCheck: a Shard assembled by hand (build never ran) must
// fail the generation check at its tile accessors under fastcc_checked, and
// behave like the plain field reads otherwise.
func TestShardGenerationCheck(t *testing.T) {
	unbuilt := &Shard{
		Key:    ShardKey{Tile: 4},
		sealed: make([]*hashtable.Sealed, 1),
	}
	defer func() {
		r := recover()
		if mempool.Checked && r == nil {
			t.Fatal("fastcc_checked build read tiles of a shard whose build never completed")
		}
		if !mempool.Checked && r != nil {
			t.Fatalf("normal build panicked: %v", r)
		}
	}()
	if got := unbuilt.sealedAt(0); got != nil {
		t.Fatalf("sealedAt(0) = %v on an empty tile array, want nil", got)
	}
}

// TestSpilledShardGenerationCheck: a shard whose tables were reclaimed after
// its image moved to the disk tier carries the spilled generation stamp; any
// reader that kept a reference to the old in-RAM shard across the spill must
// hit the mid-spill panic under fastcc_checked. The shard is forged the same
// way TestShardGenerationCheck does — a genuinely spilled shard nils its
// sealed slice, so reaching the stamp check in a normal build requires the
// slice to still be allocated.
func TestSpilledShardGenerationCheck(t *testing.T) {
	spilled := &Shard{
		Key:    ShardKey{Tile: 4},
		sealed: make([]*hashtable.Sealed, 1),
	}
	spilled.stampBuilt()
	spilled.stampSpilled()
	defer func() {
		r := recover()
		if mempool.Checked {
			if r == nil {
				t.Fatal("fastcc_checked build read tiles of a shard reclaimed mid-spill")
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "mid-spill") {
				t.Fatalf("panic %v, want the mid-spill generation message", r)
			}
		}
		if !mempool.Checked && r != nil {
			t.Fatalf("normal build panicked: %v", r)
		}
	}()
	if got := spilled.sealedAt(0); got != nil {
		t.Fatalf("sealedAt(0) = %v on a spilled stub, want nil", got)
	}
}

// TestShardBuildVerifiesMatrixStamp: under fastcc_checked, mutating the
// matrixized operand through the original slices after NewOperand must
// panic at the next shard build — the cached tables would otherwise index
// into silently different data.
func TestShardBuildVerifiesMatrixStamp(t *testing.T) {
	m := &coo.Matrix{
		Ext: []uint64{0, 1, 3}, Ctr: []uint64{0, 2, 3}, Val: []float64{1, 2, 3},
		ExtDim: 4, CtrDim: 4,
	}
	op := NewOperand(m)
	m.Val[0] = 42 // deliberate caller mutation after handing the matrix over
	defer func() {
		r := recover()
		if coo.Checked && r == nil {
			t.Fatal("fastcc_checked build built a shard over a matrix mutated after NewOperand")
		}
		if !coo.Checked && r != nil {
			t.Fatalf("normal build panicked: %v", r)
		}
	}()
	s, _ := op.Shard(ShardKey{Tile: 2}, 1)
	s.Unpin()
	op.Close()
}

// TestBuiltShardPassesGenerationCheck pins the happy path: a shard produced
// by Operand.Shard reads clean through the checked accessors.
func TestBuiltShardPassesGenerationCheck(t *testing.T) {
	m := &coo.Matrix{
		Ext: []uint64{0, 1, 3}, Ctr: []uint64{0, 2, 3}, Val: []float64{1, 2, 3},
		ExtDim: 4, CtrDim: 4,
	}
	op := NewOperand(m)
	defer op.Close()
	s, built := op.Shard(ShardKey{Tile: 2}, 1)
	if !built {
		t.Fatal("first Shard call did not build")
	}
	defer s.Unpin()
	for i := 0; i < s.Tiles(); i++ {
		_ = s.sealedAt(i)
	}
}

// probeRank is a ranked lock declared only for
// TestLockRankTwinCatchesInversion: an ordinary rank above shardLRU.mu's,
// which the exclusive rank still forbids nesting under it.
type probeRank struct{}

func (probeRank) LockRank() (int, bool) { return 2, false }
func (probeRank) RankLabel() string     { return "probe.mu" }

// TestLockRankTwinCatchesInversion takes a ranked lock while holding the
// exclusive shardLRU.mu — the nesting the one-lock lifecycle forbids, and
// the shape of its one remaining lock bug, a re-entrant acquisition — and
// requires the fastcc_checked build to panic at the second acquisition
// (internal/lockcheck, the lock-order gate), while the normal build stays
// silent. The gate catches whatever path actually ran, so every test that
// drives the lifecycle under fastcc_checked also checks it on its paths.
func TestLockRankTwinCatchesInversion(t *testing.T) {
	var probe lockcheck.Mutex[probeRank]
	shardLRU.mu.Lock()
	defer shardLRU.mu.Unlock()
	defer func() {
		r := recover()
		if lockcheck.Checked && r == nil {
			t.Fatal("fastcc_checked build did not panic on a ranked lock acquired under shardLRU.mu")
		}
		if !lockcheck.Checked && r != nil {
			t.Fatalf("normal build panicked: %v", r)
		}
	}()
	probe.Lock()
	probe.Unlock()
}
