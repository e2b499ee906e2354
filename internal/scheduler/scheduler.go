// Package scheduler provides the two parallel skeletons FaSTCC needs
// (paper Section 4.2):
//
//   - Static: a fixed team of workers that partition an index range among
//     themselves (the cyclic tile ownership of the shard build);
//   - PoolCtx (and its Pool shorthand): a dynamic task queue over an
//     index range, the Go substitute for Taskflow — each task is claimed
//     with an atomic ticket so load imbalance between tile-tile
//     contractions is absorbed at run time.
//
// The paper's nested parallel regions, where half the threads build HL and
// half build HR, are core.buildShards splitting its worker budget between
// the two operands' builds.
package scheduler

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrTaskPanic matches the error PoolCtx returns when a task panicked.
// The error carries the panic value and the panicking goroutine's stack.
var ErrTaskPanic = errors.New("scheduler: task panicked")

// taskPanic is the error for a recovered task panic v. Called from the
// recovering deferred function, debug.Stack still holds the panicking
// frames.
func taskPanic(v any) error {
	return fmt.Errorf("%w: %v\n%s", ErrTaskPanic, v, debug.Stack())
}

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
// A task's panic is raised again on the caller's goroutine, as an error
// wrapping ErrTaskPanic, once every worker has stopped.
func Pool(workers, tasks int, fn func(worker, task int)) {
	// context.Background() is never canceled, so the per-claim Err() check
	// reduces to a nil comparison, and the only error is a task panic.
	if err := PoolCtx(context.Background(), workers, tasks, fn); err != nil {
		panic(err)
	}
}

// PoolCtx is Pool with cooperative cancellation and task panics returned
// as errors. Each claim is one atomic add on the ticket and takes one task.
//
// Workers stop claiming new tasks once ctx is done, and the call returns
// ctx.Err(); it returns nil when every task ran. Tasks already in flight
// run to completion, so worker-local scratch state is never abandoned
// mid-task.
//
// A task that panics does abandon its worker's state mid-task. The worker
// recovers the panic and the others stop claiming as on cancel; once every
// worker has returned, the call returns an error wrapping ErrTaskPanic with
// the first panic's value and stack (ahead of any ctx error). The caller
// must then discard whatever worker-local state the panicking task held.
func PoolCtx(ctx context.Context, workers, tasks int, fn func(worker, task int)) error {
	workers = Workers(workers)
	if tasks <= 0 {
		return ctx.Err()
	}
	if workers > tasks {
		workers = tasks
	}
	var next atomic.Int64
	// failed holds the first recovered panic; a set value stops every
	// worker's claims.
	var failed atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					e := taskPanic(v)
					failed.CompareAndSwap(nil, &e)
				}
			}()
			for ctx.Err() == nil && failed.Load() == nil {
				t := next.Add(1) - 1
				if t >= int64(tasks) {
					return
				}
				fn(w, int(t))
			}
		}(w)
	}
	wg.Wait()
	if e := failed.Load(); e != nil {
		return *e
	}
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
