package scheduler

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

// The stress tests below are shaped for the race detector: many workers,
// tasks that finish in nanoseconds (maximum claim contention on the atomic
// ticket), and a shared sink indexed by worker id. The engine hands each
// worker id a private accumulator and output pool, so the invariant under
// test is that a Pool worker id is never held by two live goroutines
// at once — if it ever is, the unsynchronized writes to sink[w] here are a
// detector hit, not a flaky counter.
//
// Two details are load-bearing, verified by sabotaging Pool to hand out
// duplicate ids and checking the detector fires:
//
//   - NO atomics inside the task bodies. An atomic on a shared variable
//     gives the detector happens-before edges between workers and hides
//     exactly the duplicate-id race these tests exist to catch. Totals
//     live in the per-worker slots and are summed after the barrier (the
//     skeleton's own Wait provides the happens-before for that read).
//   - runtime.Gosched() in the Pool task body. On a single-CPU box one
//     worker can drain the whole ticket queue inside a scheduler quantum,
//     and the ticket atomic's release/acquire chain then orders every
//     write — no unordered pair is ever formed. Yielding per task forces
//     workers to interleave claims, making detection deterministic.

// sinkSlot keeps per-worker counters on separate cache lines so the stress
// loop measures scheduling races, not false sharing.
type sinkSlot struct {
	claims int64
	sum    int64
	_      [6]int64
}

func TestPoolRaceStress(t *testing.T) {
	const (
		workers = 64
		tasks   = 20_000
		rounds  = 4
	)
	for round := 0; round < rounds; round++ {
		var sink [workers]sinkSlot // worker-id-indexed, intentionally non-atomic
		Pool(workers, tasks, func(w, task int) {
			if w < 0 || w >= workers {
				t.Errorf("worker id %d out of range", w)
				return
			}
			sink[w].claims++ // racy iff two goroutines share an id
			sink[w].sum += int64(task)
			runtime.Gosched()
		})
		var claimed, sum int64
		for w := range sink {
			claimed += sink[w].claims
			sum += sink[w].sum
		}
		if claimed != tasks {
			t.Fatalf("round %d: %d task claims for %d tasks", round, claimed, tasks)
		}
		if want := int64(tasks) * (tasks - 1) / 2; sum != want {
			t.Fatalf("round %d: task id sum %d want %d (lost or duplicated tasks)", round, sum, want)
		}
	}
}

func TestPoolBatchRaceStress(t *testing.T) {
	// The batched claim path must preserve the Pool invariants under the
	// race detector: every task runs exactly once, and a worker id is never
	// live on two goroutines at once (the non-atomic sink writes would be a
	// detector hit). Batch sizes bracket the auto-chosen range, including
	// batches larger than the task count.
	const (
		workers = 64
		tasks   = 20_000
	)
	for _, batch := range []int{1, 7, 64, tasks + 1} {
		var sink [workers]sinkSlot // worker-id-indexed, intentionally non-atomic
		err := PoolCtxBatch(context.Background(), workers, tasks, batch, func(w, task int) {
			if w < 0 || w >= workers {
				t.Errorf("worker id %d out of range", w)
				return
			}
			sink[w].claims++ // racy iff two goroutines share an id
			sink[w].sum += int64(task)
			runtime.Gosched()
		})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		var claimed, sum int64
		for w := range sink {
			claimed += sink[w].claims
			sum += sink[w].sum
		}
		if claimed != tasks {
			t.Fatalf("batch %d: %d task claims for %d tasks", batch, claimed, tasks)
		}
		if want := int64(tasks) * (tasks - 1) / 2; sum != want {
			t.Fatalf("batch %d: task id sum %d want %d (lost or duplicated tasks)", batch, sum, want)
		}
	}
}

func TestPoolBatchCancellationAtTaskBoundaries(t *testing.T) {
	// Cancel mid-run and verify (a) the pool returns ctx.Err(), (b) workers
	// stop within one task of the cancellation even inside a claimed batch:
	// the executed count must stay far below the task count, bounded by the
	// tasks already in flight plus one per worker.
	const (
		workers = 8
		tasks   = 1 << 20
		batch   = 64
		stopAt  = 100
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int64
	err := PoolCtxBatch(ctx, workers, tasks, batch, func(w, task int) {
		if executed.Add(1) == stopAt {
			cancel()
		}
	})
	if err == nil || ctx.Err() == nil {
		t.Fatalf("canceled pool returned %v", err)
	}
	got := executed.Load()
	// After cancel, each worker may finish at most the task it is running;
	// the batch remainder (up to batch-1 tasks per worker) must NOT run.
	if limit := int64(stopAt + workers); got > limit {
		t.Fatalf("%d tasks ran after cancellation (limit %d): batch remainder not abandoned", got, limit)
	}
	if got < stopAt {
		t.Fatalf("only %d tasks ran, cancel fired at %d", got, stopAt)
	}
}

func TestPoolBatchSerialCancellation(t *testing.T) {
	// The single-worker fast path checks ctx between tasks too.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	err := PoolCtxBatch(ctx, 1, 1000, 16, func(w, task int) {
		ran++
		if ran == 10 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("want ctx error")
	}
	if ran != 10 {
		t.Fatalf("serial path ran %d tasks after cancel at 10", ran)
	}
}

func TestClaimBatchBounds(t *testing.T) {
	if b := ClaimBatch(10, 8); b != 1 {
		t.Fatalf("scarce tasks: %d", b)
	}
	if b := ClaimBatch(1<<20, 4); b != maxClaimBatch {
		t.Fatalf("plentiful tasks should cap at %d: %d", maxClaimBatch, b)
	}
	if b := ClaimBatch(0, 8); b != 1 {
		t.Fatalf("zero tasks: %d", b)
	}
	mid := ClaimBatch(8*claimSlack*10, 8)
	if mid != 10 {
		t.Fatalf("mid range: %d want 10", mid)
	}
}

func TestStaticRaceStress(t *testing.T) {
	const (
		workers = 48
		slots   = 10_000
	)
	sink := make([]int64, slots) // cyclic ownership: worker w owns i % workers == w
	Static(workers, func(w, n int) {
		for i := w; i < slots; i += n {
			sink[i]++ // racy iff the cyclic partition overlaps
		}
	})
	for i, v := range sink {
		if v != 1 {
			t.Fatalf("slot %d written %d times", i, v)
		}
	}
}
