package fastcc

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"fastcc/internal/ref"
)

// TestLifecycleStress hammers the shard-cache lifecycle from the public API:
// several goroutines loop ContractPrepared over the same two *Sharded
// operands while a dropper goroutine concurrently calls Drop on both and a
// squeezer goroutine flips the process budget between 1 byte (every run
// evicts) and unlimited, so concurrent runs see conflicting budgets. Every
// result is checked against a single precomputed reference, so any torn
// read of a mid-reclaim shard shows up as a wrong answer even when it
// doesn't crash. Run it under -race and under
// -tags fastcc_checked (make race and make test-checked); the checked build
// turns any pin-protocol violation into a generation-stamp panic, and the
// dedicated unpinned-read twin lives in internal/core/lifecycle_test.go
// where the sealed tables are reachable.
func TestLifecycleStress(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := randomTensor(rng, []uint64{20, 16, 18}, 900)
	r := randomTensor(rng, []uint64{18, 14, 20}, 900)
	spec := Spec{CtrLeft: []int{2, 0}, CtrRight: []int{0, 2}}

	want, err := ref.Contract(l, r, spec)
	if err != nil {
		t.Fatal(err)
	}

	t.Cleanup(func() { SetShardBudget(0) })
	ls, err := Preshard(l, spec.CtrLeft)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Preshard(r, spec.CtrRight)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Drop()
	defer rs.Drop()

	workers, iters := 4, 40
	if testing.Short() {
		workers, iters = 3, 8
	}

	before := ShardCacheStats()
	done := make(chan struct{})
	var contenders, churners sync.WaitGroup

	// The dropper: keeps dooming whatever shards the contenders cached.
	// Pinned in-flight readers must finish their runs unharmed; the next
	// run rebuilds.
	churners.Add(1)
	go func() {
		defer churners.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			ls.Drop()
			rs.Drop()
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// The squeezer: alternates a 1-byte budget (evict everything unpinned,
	// and every run's exit settles to it) with an unlimited one.
	churners.Add(1)
	go func() {
		defer churners.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%2 == 0 {
				SetShardBudget(1)
			} else {
				SetShardBudget(-1)
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()

	for g := 0; g < workers; g++ {
		contenders.Add(1)
		go func(g int) {
			defer contenders.Done()
			for i := 0; i < iters; i++ {
				got, _, err := ContractPrepared(ls, rs, WithThreads(2))
				if err != nil {
					t.Errorf("worker %d iter %d: %v", g, i, err)
					return
				}
				if !Equal(got, want) {
					t.Errorf("worker %d iter %d: result diverged from reference (%d nnz, want %d)",
						g, i, got.NNZ(), want.NNZ())
					return
				}
			}
		}(g)
	}

	contenders.Wait()
	close(done)
	churners.Wait()

	// Churn must actually have happened — but which counter moved during the
	// storm depends on whether Drop or the budget squeeze won each race, so
	// force both deterministically now that the churners are gone. A
	// squeezed run evicts its own shards as its pins drop.
	SetShardBudget(1)
	for i := 0; i < 2; i++ {
		got, _, err := ContractPrepared(ls, rs, WithThreads(2))
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, want) {
			t.Fatalf("squeezed run %d diverged from reference", i)
		}
	}
	// An unlimited run leaves residents for Drop to doom.
	SetShardBudget(-1)
	if _, _, err := ContractPrepared(ls, rs, WithThreads(2)); err != nil {
		t.Fatal(err)
	}
	ls.Drop()
	rs.Drop()

	after := ShardCacheStats()
	if after.Evictions-before.Evictions <= 0 {
		t.Errorf("no evictions under a 1-byte budget (delta %d)", after.Evictions-before.Evictions)
	}
	if after.Drops-before.Drops <= 0 {
		t.Errorf("no drops despite Drop on resident shards (delta %d)", after.Drops-before.Drops)
	}

	// One final run proves the operands survived the storm.
	got, _, err := ContractPrepared(ls, rs, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, want) {
		t.Fatal("post-storm run diverged from reference")
	}
}

// TestShardBudgetIsProcessState pins the shard-cache budget as process
// state: a run's platform profile sizes its tiles but never rewrites the
// budget. Under a 1-byte budget, runs planned for the host and for the
// 64-core server profile both evict their shards as their pins drop; only
// SetShardBudget lifts the squeeze.
func TestShardBudgetIsProcessState(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	l := randomTensor(rng, []uint64{20, 16, 18}, 900)
	r := randomTensor(rng, []uint64{18, 14, 20}, 900)
	spec := Spec{CtrLeft: []int{2, 0}, CtrRight: []int{0, 2}}
	want, err := ref.Contract(l, r, spec)
	if err != nil {
		t.Fatal(err)
	}

	SetShardBudget(1)
	t.Cleanup(func() { SetShardBudget(0) })
	ls, err := Preshard(l, spec.CtrLeft)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Drop()
	rs, err := Preshard(r, spec.CtrRight)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Drop()

	run := func(what string, opts ...Option) {
		t.Helper()
		got, _, err := ContractPrepared(ls, rs, append(opts, WithThreads(2))...)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !Equal(got, want) {
			t.Fatalf("%s: result diverged from reference", what)
		}
	}
	for _, p := range []Platform{AutoPlatform(), Server64} {
		run(p.Name, WithPlatform(p))
		if ls.Warm() || rs.Warm() {
			t.Errorf("%s: %d bytes of shards resident after a run under a 1-byte budget",
				p.Name, ls.SizeBytes()+rs.SizeBytes())
		}
	}

	SetShardBudget(-1)
	run("unbounded")
	if !ls.Warm() || !rs.Warm() {
		t.Fatalf("unbounded budget: warm left=%v right=%v, want both resident", ls.Warm(), rs.Warm())
	}
}
