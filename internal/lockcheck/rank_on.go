//go:build fastcc_checked

// fastcc_checked mode: every Lock on a ranked mutex is validated against the
// acquiring goroutine's stack of currently held ranks, so a hierarchy
// violation on any executed path (including an interleaving a -race soak
// never hit) becomes a deterministic panic at the acquisition site instead
// of a once-a-month deadlock. The check runs BEFORE blocking on the inner mutex: an inversion
// is exactly the shape that deadlocks, and a panic is only useful if it
// fires instead of the hang.
package lockcheck

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
)

// Checked reports whether the dynamic lock-rank checking is compiled in.
const Checked = true

// Mutex is a sync.Mutex whose place in the lock hierarchy is named by its
// type parameter; under fastcc_checked, Lock validates the acquisition
// against this goroutine's held ranks and panics on a violation.
type Mutex[R Rank] struct {
	mu sync.Mutex
}

func (m *Mutex[R]) Lock() {
	var r R
	acquire(r)
	m.mu.Lock()
}

// TryLock validates only on success: a failed try holds nothing. A
// successful try that inverts the hierarchy still panics — TryLock cannot
// deadlock, but the hierarchy is a statement about the program's design,
// and dynamic mode exists to report where it breaks.
func (m *Mutex[R]) TryLock() bool {
	if !m.mu.TryLock() {
		return false
	}
	var r R
	acquire(r)
	return true
}

func (m *Mutex[R]) Unlock() {
	var r R
	release(r)
	m.mu.Unlock()
}

// heldEntry is one ranked lock currently held by some goroutine.
type heldEntry struct {
	rank  int
	excl  bool
	label string
}

// The held-rank registry: goroutine ID → stack of held ranked locks. A
// single locked map is deliberately dumb — checked builds buy determinism,
// not speed — and entries are deleted when a goroutine's stack empties so
// short-lived goroutines do not leak registry slots.
var (
	heldMu sync.Mutex
	held   = map[uint64][]heldEntry{}
)

// gid extracts the current goroutine's ID from the runtime.Stack header
// ("goroutine 123 [running]:"). There is no supported API for this on
// purpose; a checked-build sanitizer is the one place the discouraged trick
// is the right tool, because the alternative is threading a token through
// every Lock call site.
func gid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		panic("lockcheck: unparseable runtime.Stack header")
	}
	id, err := strconv.ParseUint(string(fields[1]), 10, 64)
	if err != nil {
		panic("lockcheck: unparseable goroutine id: " + err.Error())
	}
	return id
}

// acquire validates r against every rank this goroutine already holds and
// pushes it.
func acquire(r Rank) {
	rank, excl := r.LockRank()
	label := r.RankLabel()
	g := gid()
	heldMu.Lock()
	defer heldMu.Unlock()
	for _, h := range held[g] {
		var why string
		switch {
		case h.excl:
			why = fmt.Sprintf("%s (rank %d) is exclusive: no ranked lock may be acquired while it is held", h.label, h.rank)
		case excl:
			why = fmt.Sprintf("%s (rank %d) is exclusive: it may not be acquired while any ranked lock is held", label, rank)
		case rank <= h.rank:
			why = fmt.Sprintf("rank %d is not above held rank %d (lower ranks are outer)", rank, h.rank)
		default:
			continue
		}
		panic(fmt.Sprintf("lockcheck: acquiring %s (rank %d) while holding %s (rank %d): %s", label, rank, h.label, h.rank, why))
	}
	held[g] = append(held[g], heldEntry{rank: rank, excl: excl, label: label})
}

// release pops the most recent matching entry. Matching by rank+label
// rather than strict stack order tolerates out-of-order unlocks of
// independent locks, which the hierarchy permits.
func release(r Rank) {
	rank, _ := r.LockRank()
	label := r.RankLabel()
	g := gid()
	heldMu.Lock()
	defer heldMu.Unlock()
	s := held[g]
	for i := len(s) - 1; i >= 0; i-- {
		if s[i].rank == rank && s[i].label == label {
			held[g] = append(s[:i], s[i+1:]...)
			break
		}
	}
	if len(held[g]) == 0 {
		delete(held, g)
	}
}
