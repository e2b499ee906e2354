package scheduler

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestPoolCtxCompletesUncanceled(t *testing.T) {
	const tasks = 200
	var hits [tasks]atomic.Int32
	err := PoolCtxBatchGuarded(context.Background(), 4, tasks, 1, Guard{}, func(_, task int) {
		hits[task].Add(1)
	})
	if err != nil {
		t.Fatalf("PoolCtxBatchGuarded: %v", err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("task %d ran %d times", i, hits[i].Load())
		}
	}
}

func TestPoolCtxStopsAtTaskBoundary(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := PoolCtxBatchGuarded(ctx, workers, 100000, 1, Guard{}, func(_, task int) {
			if ran.Add(1) == 3 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err=%v want context.Canceled", workers, err)
		}
		// Cancellation is cooperative: in-flight tasks finish, but no more
		// than one extra claim per worker can slip through.
		if got := ran.Load(); got > int64(3+workers) {
			t.Fatalf("workers=%d: %d tasks ran after cancel", workers, got)
		}
	}
}

func TestPoolCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := PoolCtxBatchGuarded(ctx, 2, 10, 1, Guard{}, func(_, task int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v", err)
	}
	if got := ran.Load(); got > 2 {
		t.Fatalf("%d tasks ran under pre-canceled context", got)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(4) != 4 {
		t.Fatal("explicit count ignored")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Fatal("default count wrong")
	}
}

func TestPoolCoversAllTasksOnce(t *testing.T) {
	const tasks = 1000
	var hits [tasks]atomic.Int32
	Pool(8, tasks, func(_, task int) {
		hits[task].Add(1)
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("task %d ran %d times", i, hits[i].Load())
		}
	}
}

func TestPoolSingleWorkerSequential(t *testing.T) {
	order := []int{}
	Pool(1, 5, func(w, task int) {
		if w != 0 {
			t.Fatalf("worker %d in single-worker pool", w)
		}
		order = append(order, task)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("single worker should be in order: %v", order)
		}
	}
}

func TestPoolZeroTasks(t *testing.T) {
	ran := false
	Pool(4, 0, func(_, _ int) { ran = true })
	if ran {
		t.Fatal("fn ran with zero tasks")
	}
}

func TestPoolWorkerIDsBounded(t *testing.T) {
	var bad atomic.Bool
	Pool(3, 100, func(w, _ int) {
		if w < 0 || w >= 3 {
			bad.Store(true)
		}
	})
	if bad.Load() {
		t.Fatal("worker id out of range")
	}
}

func TestStaticPartition(t *testing.T) {
	const n = 100
	var owner [n]atomic.Int32
	for i := range owner {
		owner[i].Store(-1)
	}
	Static(4, func(w, workers int) {
		if workers != 4 {
			t.Errorf("workers=%d", workers)
		}
		for i := w; i < n; i += workers {
			if !owner[i].CompareAndSwap(-1, int32(w)) {
				t.Errorf("tile %d claimed twice", i)
			}
		}
	})
	for i := range owner {
		if owner[i].Load() != int32(i%4) {
			t.Fatalf("tile %d owned by %d", i, owner[i].Load())
		}
	}
}
