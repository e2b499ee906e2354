// Package scheduler provides the two parallel skeletons FaSTCC needs
// (paper Section 4.2):
//
//   - Static: a fixed team of workers that partition an index range among
//     themselves (the cyclic tile ownership of the shard build);
//   - PoolCtxBatchGuarded (and its Pool shorthand): a dynamic task queue
//     over an index range, the Go substitute for Taskflow — tasks are
//     claimed with an atomic ticket so load imbalance between tile-tile
//     contractions is absorbed at run time.
//
// The paper's nested parallel regions, where half the threads build HL and
// half build HR, are core.buildShards splitting its worker budget between
// the two operands' builds.
package scheduler

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested thread count: n <= 0 selects GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Pool runs fn(worker, task) for every task in [0, tasks), claimed
// dynamically by an atomic ticket counter across `workers` goroutines. Each
// worker keeps its id for the task's lifetime, so fn can use worker-local
// scratch state (accumulators, output pools). Returns when all tasks finish.
func Pool(workers, tasks int, fn func(worker, task int)) {
	// context.Background() is never canceled, so the per-task Err() check
	// reduces to a nil comparison.
	_ = PoolCtxBatchGuarded(context.Background(), workers, tasks, 1, Guard{}, fn)
}

// ClaimBatch picks a per-claim batch size for PoolCtxBatchGuarded: 1 while
// tasks are scarce relative to workers (dynamic balancing matters most),
// growing once tasks >> workers so the atomic ticket stops being a
// contention point, and capped so the tail imbalance stays below
// ~1/claimSlack of a worker's share.
func ClaimBatch(tasks, workers int) int {
	workers = Workers(workers)
	b := tasks / (workers * claimSlack)
	if b < 1 {
		return 1
	}
	if b > maxClaimBatch {
		return maxClaimBatch
	}
	return b
}

const (
	// claimSlack is the minimum number of claims each worker should get so
	// dynamic scheduling still absorbs load imbalance between batches.
	claimSlack = 16
	// maxClaimBatch bounds a single claim so a slow worker cannot strand a
	// large task range behind it.
	maxClaimBatch = 64
)

// Guard brackets each worker's participation in a pool run: Acquire runs on
// the worker's own goroutine before its first claim, Release runs (deferred,
// so panics and cancellation cannot skip it) after its last task. The engine
// uses this to pin shard-cache entries for the duration of a worker's
// involvement — readers hold their pins across every task they claim, and
// eviction waits for Release, not for individual tile boundaries. Either
// func may be nil. Workers that never start (tasks exhausted before launch)
// still run the pair: Acquire/Release are balanced exactly once per worker
// goroutine that PoolCtxBatchGuarded spawns.
type Guard struct {
	Acquire func(worker int)
	Release func(worker int)
}

func (g Guard) acquire(w int) {
	if g.Acquire != nil {
		g.Acquire(w)
	}
}

func (g Guard) release(w int) {
	if g.Release != nil {
		g.Release(w)
	}
}

// PoolCtxBatchGuarded is Pool with cooperative cancellation, batched ticket
// claiming and a per-worker Guard (see Guard for the bracket contract).
//
// Workers stop claiming new tasks once ctx is done, and the call returns
// ctx.Err(); it returns nil when every task ran. Tasks already in flight
// run to completion, so worker-local scratch state is never abandoned
// mid-task.
//
// Each atomic increment claims up to `batch` consecutive tasks, cutting
// claim contention by that factor when tasks are tiny and plentiful;
// batch < 1 is treated as 1. Cancellation is still observed at every task
// boundary — a canceled context stops a worker mid-batch, leaving the rest
// of its claimed range unexecuted — so the latency to stop is one task, not
// one batch.
func PoolCtxBatchGuarded(ctx context.Context, workers, tasks, batch int, g Guard, fn func(worker, task int)) error {
	workers = Workers(workers)
	if tasks <= 0 {
		return ctx.Err()
	}
	if batch < 1 {
		batch = 1
	}
	if workers > tasks {
		workers = tasks
	}
	if workers == 1 {
		g.acquire(0)
		defer g.release(0)
		for t := 0; t < tasks; t++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, t)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g.acquire(w)
			defer g.release(w)
			for ctx.Err() == nil {
				hi := next.Add(int64(batch))
				lo := hi - int64(batch)
				if lo >= int64(tasks) {
					return
				}
				if hi > int64(tasks) {
					hi = int64(tasks)
				}
				for t := lo; t < hi; t++ {
					// The claim loop just checked ctx for the batch's first
					// task; re-check before each subsequent one.
					if t > lo && ctx.Err() != nil {
						return
					}
					fn(w, int(t))
				}
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}

// Static runs fn(worker) on `workers` goroutines and waits; workers derive
// their own index partitioning (used for the cyclic tile-ownership hash
// build where worker w owns tiles i with i % workers == w).
func Static(workers int, fn func(worker, workers int)) {
	workers = Workers(workers)
	if workers == 1 {
		fn(0, 1)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w, workers)
		}(w)
	}
	wg.Wait()
}
