package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"fastcc/internal/mempool"
	"fastcc/internal/testutil"
)

// The tests in this file pin the shard-cache lifecycle protocol: Shard
// returns pinned, pins block eviction, Close/Drop dooms, and reclaimed
// storage flows back through the pools. The cache is process-global, so
// every assertion here is a delta against a captured baseline, never an
// absolute — other tests in the binary legitimately leave residents behind.

// lifecycleState reads s's pin count and retired flag under the lock that
// guards them.
func lifecycleState(s *Shard) (pins int, retired bool) {
	shardLRU.mu.Lock()
	defer shardLRU.mu.Unlock()
	return s.pins, s.retired
}

// lifecycleOperand builds a fresh operand big enough to have several
// non-empty tiles under the given key.
func lifecycleOperand(seed int64) *Operand {
	rng := rand.New(rand.NewSource(seed))
	return NewOperand(randomMatrix(rng, 200, 30, 1500))
}

func TestShardReturnsPinnedAndCountsHits(t *testing.T) {
	op := lifecycleOperand(11)
	defer op.Close()
	key := ShardKey{Tile: 32, Rep: RepHash}

	before := CacheStats()
	s, built := op.Shard(key, 2)
	if !built {
		t.Fatal("first Shard call did not build")
	}
	if pins, _ := lifecycleState(s); pins != 1 {
		t.Fatalf("Shard returned a shard with %d pins, want 1", pins)
	}
	s2, built2 := op.Shard(key, 2)
	if built2 || s2 != s {
		t.Fatalf("second Shard call built=%v same=%v, want hit on the same shard", built2, s2 == s)
	}
	s2.Unpin()
	s.Unpin()
	after := CacheStats()
	if after.Misses-before.Misses != 1 || after.Hits-before.Hits != 1 {
		t.Fatalf("counter deltas hits=%d misses=%d, want 1 and 1",
			after.Hits-before.Hits, after.Misses-before.Misses)
	}
}

func TestEvictionSkipsPinnedShards(t *testing.T) {
	op := lifecycleOperand(13)
	defer op.Close()
	key := ShardKey{Tile: 32, Rep: RepHash}
	s, _ := op.Shard(key, 2)

	// A 1-byte budget demands eviction of everything — but the pin must hold.
	SetShardBudget(1)
	if !op.Cached(key) {
		t.Fatal("pinned shard was evicted")
	}
	if st := CacheStats(); st.PinnedBytes <= 0 {
		t.Fatalf("PinnedBytes=%d with a pinned resident shard", st.PinnedBytes)
	}
	// Reads through the shard must still be live.
	for _, i := range s.NonEmpty() {
		if s.sealedAt(i) == nil {
			t.Fatalf("tile %d vanished under a pinned shard", i)
		}
	}

	before := CacheStats()
	s.Unpin()
	SetShardBudget(1) // re-enforce now that the pin is gone
	if op.Cached(key) {
		t.Fatal("unpinned shard survived a 1-byte budget")
	}
	after := CacheStats()
	if after.Evictions <= before.Evictions {
		t.Fatalf("Evictions did not grow (%d -> %d)", before.Evictions, after.Evictions)
	}
	if after.EvictedBytes <= before.EvictedBytes {
		t.Fatalf("EvictedBytes did not grow (%d -> %d)", before.EvictedBytes, after.EvictedBytes)
	}
	SetShardBudget(0) // back to the default for the rest of the binary
}

func TestCloseDropsAndRebuilds(t *testing.T) {
	op := lifecycleOperand(17)
	key := ShardKey{Tile: 16, Rep: RepSorted}
	op.Warm(key, 2)
	if !op.Cached(key) {
		t.Fatal("Warm did not cache the shard")
	}

	before := CacheStats()
	op.Close()
	if op.Cached(key) {
		t.Fatal("shard still cached after Close")
	}
	after := CacheStats()
	if after.Drops-before.Drops != 1 {
		t.Fatalf("Drops delta = %d, want 1", after.Drops-before.Drops)
	}

	// The operand stays usable: the next Shard call rebuilds.
	s, built := op.Shard(key, 2)
	if !built {
		t.Fatal("Shard after Close did not rebuild")
	}
	s.Unpin()
	op.Close()
}

func TestCloseWhilePinnedDefersReclaim(t *testing.T) {
	op := lifecycleOperand(19)
	key := ShardKey{Tile: 32, Rep: RepHash}
	s, _ := op.Shard(key, 2)

	op.Close() // dooms; s is pinned, so its tables must survive
	for _, i := range s.NonEmpty() {
		if s.sealedAt(i) == nil {
			t.Fatalf("tile %d reclaimed under a pinned doomed shard", i)
		}
	}
	if op.Cached(key) {
		t.Fatal("doomed shard still visible through the operand")
	}

	before := CacheStats()
	s.Unpin() // last pin out: the deferred drop runs here
	after := CacheStats()
	if after.Drops-before.Drops != 1 {
		t.Fatalf("Drops delta = %d after last Unpin of a doomed shard, want 1", after.Drops-before.Drops)
	}
	if pins, retired := lifecycleState(s); pins != 0 || !retired {
		t.Fatalf("reclaimed shard has %d pins, retired=%v; want 0 and retired", pins, retired)
	}
}

// TestShardUnpinWithoutPinPanics: an Unpin with no matching pin is a
// protocol violation that would let eviction reclaim tables some reader
// still holds, so it must panic — and leave the lock free for the rest of
// the binary.
func TestShardUnpinWithoutPinPanics(t *testing.T) {
	op := lifecycleOperand(47)
	defer op.Close()
	s, _ := op.Shard(ShardKey{Tile: 32, Rep: RepHash}, 2)
	s.Unpin()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Unpin without a matching pin did not panic")
			}
		}()
		s.Unpin()
	}()
	if pins, _ := lifecycleState(s); pins != 0 {
		t.Fatalf("pin count %d after the rejected Unpin, want 0", pins)
	}
}

func TestWarmHoldsNoPin(t *testing.T) {
	op := lifecycleOperand(23)
	defer op.Close()
	key := ShardKey{Tile: 32, Rep: RepHash}
	if built := op.Warm(key, 2); !built {
		t.Fatal("first Warm did not build")
	}
	if built := op.Warm(key, 2); built {
		t.Fatal("second Warm rebuilt a cached shard")
	}
	// Warm left no pin behind, so a squeeze must reclaim the shard.
	SetShardBudget(1)
	if op.Cached(key) {
		t.Fatal("warmed shard survived a 1-byte budget: Warm leaked a pin")
	}
	SetShardBudget(0)
}

// countdownCtx is a context whose Err reports nil for its first n calls and
// context.Canceled after, so a test can cancel a run at each of its
// cancellation checks in turn.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestShardPinsReleasedOnCancel cancels ContractOperands at every
// cancellation check a run makes, one check later each time, until a run
// completes. Whatever check fires, the run's shard pins must all be
// released by the time it returns: a leaked pin blocks eviction of the
// shard forever.
func TestShardPinsReleasedOnCancel(t *testing.T) {
	l, r := lifecycleOperand(41), lifecycleOperand(43)
	defer l.Close()
	defer r.Close()
	for _, threads := range []int{1, 2} {
		completed := false
		for n := int64(0); !completed; n++ {
			if n > 10000 {
				t.Fatalf("threads=%d: no run completed after %d cancellation points", threads, n)
			}
			before := CacheStats().PinnedBytes
			cfg := Config{Threads: threads, TileL: 32, TileR: 32, Platform: tinyLLC, Context: newCountdownCtx(n)}
			out, _, err := ContractOperands(l, r, cfg)
			switch {
			case err == nil:
				completed = true
				RecycleOutput(out)
			case !errors.Is(err, context.Canceled):
				t.Fatalf("threads=%d cancel after %d checks: %v", threads, n, err)
			}
			if after := CacheStats().PinnedBytes; after != before {
				t.Fatalf("threads=%d cancel after %d checks: PinnedBytes=%d, want %d", threads, n, after, before)
			}
		}
	}
}

func TestCacheChargeReturnsToBaseline(t *testing.T) {
	cachedBytes := testutil.Gauge{Name: "shard-cache bytes", Read: func() int64 { return CacheStats().CachedBytes }}
	residentShards := testutil.Gauge{Name: "shard-cache shards", Read: func() int64 { return CacheStats().Shards }}
	base := testutil.Capture(cachedBytes, residentShards)

	for _, rep := range []InputRep{RepHash, RepSorted} {
		op := lifecycleOperand(29)
		s, _ := op.Shard(ShardKey{Tile: 16, Rep: rep}, 2)
		s.Unpin()
		op.Close()
	}
	base.Assert(t)
}

// TestUnpinnedReadAfterReclaimPanicsWhenChecked injects the exact bug the
// pin protocol exists to prevent: a reader keeps a sealed-table reference,
// releases its pin, the shard is dropped, and the reader touches the table
// anyway. Under fastcc_checked the table's generation stamp (invalidated by
// Sealed.Recycle) turns that into a deterministic panic. The normal build's
// behavior after reclaim is undefined (the arrays are recycled), so the test
// only runs checked.
func TestUnpinnedReadAfterReclaimPanicsWhenChecked(t *testing.T) {
	if !mempool.Checked {
		t.Skip("generation stamps require -tags fastcc_checked")
	}
	op := lifecycleOperand(31)
	key := ShardKey{Tile: 32, Rep: RepHash}
	s, _ := op.Shard(key, 2)
	tbl := s.sealedAt(s.NonEmpty()[0])
	s.Unpin()
	op.Close() // reclaims: tbl's arenas are recycled, its stamp invalidated

	defer func() {
		if recover() == nil {
			t.Fatal("read through a recycled sealed table did not panic under fastcc_checked")
		}
	}()
	tbl.KeyAt(0)
}

// TestShardAccessAfterReclaimPanicsWhenChecked is the shard-level twin: the
// tile accessors themselves must trip on the retired generation stamp.
func TestShardAccessAfterReclaimPanicsWhenChecked(t *testing.T) {
	if !mempool.Checked {
		t.Skip("generation stamps require -tags fastcc_checked")
	}
	op := lifecycleOperand(37)
	s, _ := op.Shard(ShardKey{Tile: 32, Rep: RepHash}, 2)
	i := s.NonEmpty()[0]
	s.Unpin()
	op.Close()

	defer func() {
		if recover() == nil {
			t.Fatal("sealedAt on a reclaimed shard did not panic under fastcc_checked")
		}
	}()
	_ = s.sealedAt(i)
}
