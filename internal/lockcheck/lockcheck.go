// Package lockcheck is the repo's lock-order gate: a mutex whose place in
// the lock hierarchy is part of its type, checked at runtime under the
// fastcc_checked build tag.
//
// Each goroutine carries a stack of the ranked locks it currently holds,
// and an acquisition that violates the declared order — rank not strictly
// above every held rank, or an `exclusive` lock nested with any ranked lock
// in either order — panics deterministically at the Lock call, naming both
// locks and the rule broken. A violation therefore fails whichever test
// first drives the offending path, not only a run that happens to
// deadlock. The fastcc_checked legs of `make ci` (test, lifecycle, spill
// and fuzz) arm it, and the checked test leg executes every Lock call on
// the ranked mutexes.
//
// A ranked mutex is declared by naming its rank as a type:
//
//	type lruRank struct{}
//
//	func (lruRank) LockRank() (int, bool) { return 1, true } // rank 1, exclusive
//	func (lruRank) RankLabel() string     { return "shardCache.mu" }
//
//	mu lockcheck.Mutex[lruRank] // never nested with Operand.mu
//
// Carrying the rank in the type parameter keeps the zero value ready to use
// (no SetRank call to forget, no per-instance state) and keeps the normal
// build at literal zero cost: without fastcc_checked, Mutex is a thin
// wrapper whose Lock/Unlock inline to sync.Mutex calls. The rank type is
// the one source of truth for a lock's place in the hierarchy.
//
// Like the rest of fastcc_checked (mempool poisoning, Sealed generation
// stamps), the check trades throughput for determinism: the held-rank
// registry is a single locked map keyed by goroutine ID, which is exactly as
// slow as it sounds and exactly why it compiles to nothing in normal builds.
package lockcheck

// A Rank names one level of the lock hierarchy as a type, so a ranked
// mutex's order is part of its declaration rather than per-instance state.
//
// LockRank returns the numeric rank (lower ranks are outer: while a rank-r
// lock is held, only strictly greater ranks may be acquired) and whether the
// lock is exclusive (a leaf and a root at once: nothing ranked may be held
// when it is acquired, and nothing ranked acquired while it is held).
// RankLabel names the lock in panic messages; use the declaration's
// Type.field spelling so a panic points at the field.
//
// Both methods must be pure functions of the type: the checker calls them on
// the zero value.
type Rank interface {
	LockRank() (rank int, exclusive bool)
	RankLabel() string
}
