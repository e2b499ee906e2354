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
	// PoolCtx, the loop behind Pool, must keep the Pool invariants under the
	// race detector with 64 workers claiming one task per atomic add: every
	// task runs exactly once, and a worker id is never live on two
	// goroutines at once (the non-atomic sink writes would be a detector
	// hit).
	const (
		workers = 64
		tasks   = 20_000
	)
	var sink [workers]sinkSlot // worker-id-indexed, intentionally non-atomic
	err := PoolCtx(context.Background(), workers, tasks, func(w, task int) {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d out of range", w)
			return
		}
		sink[w].claims++ // racy iff two goroutines share an id
		sink[w].sum += int64(task)
		runtime.Gosched()
	})
	if err != nil {
		t.Fatal(err)
	}
	var claimed, sum int64
	for w := range sink {
		claimed += sink[w].claims
		sum += sink[w].sum
	}
	if claimed != tasks {
		t.Fatalf("%d task claims for %d tasks", claimed, tasks)
	}
	if want := int64(tasks) * (tasks - 1) / 2; sum != want {
		t.Fatalf("task id sum %d want %d (lost or duplicated tasks)", sum, want)
	}
}

func TestPoolBatchCancellationAtTaskBoundaries(t *testing.T) {
	// Cancel mid-run and verify (a) the pool returns ctx.Err(), (b) workers
	// stop within one task of the cancellation: the executed count must
	// stay far below the task count, bounded by the tasks already in
	// flight plus one per worker.
	const (
		workers = 8
		tasks   = 1 << 20
		stopAt  = 100
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int64
	err := PoolCtx(ctx, workers, tasks, func(w, task int) {
		if executed.Add(1) == stopAt {
			cancel()
		}
	})
	if err == nil || ctx.Err() == nil {
		t.Fatalf("canceled pool returned %v", err)
	}
	got := executed.Load()
	// After cancel, each worker may finish at most the task it is running.
	if limit := int64(stopAt + workers); got > limit {
		t.Fatalf("%d tasks ran after cancellation (limit %d)", got, limit)
	}
	if got < stopAt {
		t.Fatalf("only %d tasks ran, cancel fired at %d", got, stopAt)
	}
}

func TestPoolBatchSerialCancellation(t *testing.T) {
	// One worker runs the same claim loop, which checks ctx before every
	// claim: no task runs after the one that canceled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	err := PoolCtx(ctx, 1, 1000, func(w, task int) {
		ran++
		if ran == 10 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("want ctx error")
	}
	if ran != 10 {
		t.Fatalf("one worker ran %d tasks after cancel at 10", ran)
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
