//go:build !fastcc_checked

package lockcheck

import "sync"

// Checked reports whether the dynamic lock-rank checking is compiled in.
// Tests use it to decide whether a deliberate inversion must panic (checked
// builds) or pass silently (normal builds).
const Checked = false

// Mutex is a sync.Mutex whose place in the lock hierarchy is named by its
// type parameter. In the normal build it is a thin wrapper — these
// forwarders inline, so a ranked mutex costs exactly a sync.Mutex — and the
// rank is not checked; the fastcc_checked build enforces it. The field is
// unexported in both builds so no caller can reach the inner mutex and
// bypass the checked build's accounting.
type Mutex[R Rank] struct {
	mu sync.Mutex
}

func (m *Mutex[R]) Lock()         { m.mu.Lock() }
func (m *Mutex[R]) TryLock() bool { return m.mu.TryLock() }
func (m *Mutex[R]) Unlock()       { m.mu.Unlock() }
