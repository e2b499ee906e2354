package scheduler

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestGuardBalancedPerWorker: every worker goroutine the pool spawns must
// run Acquire exactly once before its first task and Release exactly once
// after its last — the bracket the engine's shard pins depend on.
func TestGuardBalancedPerWorker(t *testing.T) {
	for _, workers := range []int{1, 4, 9} {
		const tasks = 120
		var acquires, releases, ran atomic.Int64
		inBracket := make([]atomic.Bool, Workers(workers))
		g := Guard{
			Acquire: func(w int) { acquires.Add(1); inBracket[w].Store(true) },
			Release: func(w int) { releases.Add(1); inBracket[w].Store(false) },
		}
		err := PoolCtxBatchGuarded(context.Background(), workers, tasks, 7, g, func(w, task int) {
			if !inBracket[w].Load() {
				t.Errorf("workers=%d: task %d ran outside worker %d's acquire/release bracket", workers, task, w)
			}
			ran.Add(1)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ran.Load() != tasks {
			t.Fatalf("workers=%d: ran %d of %d tasks", workers, ran.Load(), tasks)
		}
		if acquires.Load() != releases.Load() {
			t.Fatalf("workers=%d: %d acquires vs %d releases", workers, acquires.Load(), releases.Load())
		}
		if acquires.Load() == 0 {
			t.Fatalf("workers=%d: guard never ran", workers)
		}
	}
}

// TestGuardReleasesOnCancellation: a canceled run must still pair every
// Acquire with a Release — a leaked pin would block eviction forever. With
// batch 3, canceling at task 5 stops a worker at a batch's end, in the claim
// loop; canceling at task 4 stops the worker holding tasks 3..5 mid-batch,
// on the return before task 5.
func TestGuardReleasesOnCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, cancelAt := range []int{4, 5} {
			ctx, cancel := context.WithCancel(context.Background())
			var acquires, releases atomic.Int64
			g := Guard{
				Acquire: func(int) { acquires.Add(1) },
				Release: func(int) { releases.Add(1) },
			}
			err := PoolCtxBatchGuarded(ctx, workers, 500, 3, g, func(_, task int) {
				if task == cancelAt {
					cancel()
				}
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d cancel at %d: err=%v, want context.Canceled", workers, cancelAt, err)
			}
			if acquires.Load() != releases.Load() || acquires.Load() == 0 {
				t.Fatalf("workers=%d cancel at %d: %d acquires vs %d releases after cancellation", workers, cancelAt, acquires.Load(), releases.Load())
			}
			cancel()
		}
	}
}

// TestGuardZeroValueIsNoop: a zero Guard (nil funcs) must be a no-op, as
// Pool and the tests that pass Guard{} rely on.
func TestGuardZeroValueIsNoop(t *testing.T) {
	var ran atomic.Int64
	if err := PoolCtxBatchGuarded(context.Background(), 3, 50, 1, Guard{}, func(_, _ int) { ran.Add(1) }); err != nil {
		t.Fatalf("zero guard: %v", err)
	}
	if ran.Load() != 50 {
		t.Fatalf("zero guard ran %d of 50 tasks", ran.Load())
	}
}

// TestGuardZeroTasks: a run with nothing to do must not invoke the guard at
// all (no worker goroutines start).
func TestGuardZeroTasks(t *testing.T) {
	var acquires atomic.Int64
	g := Guard{Acquire: func(int) { acquires.Add(1) }, Release: func(int) {}}
	if err := PoolCtxBatchGuarded(context.Background(), 4, 0, 1, g, func(_, _ int) {}); err != nil {
		t.Fatalf("zero tasks: %v", err)
	}
	if acquires.Load() != 0 {
		t.Fatalf("guard acquired %d times with zero tasks", acquires.Load())
	}
}
