// Fixture for atomicmix: a tile-pool ticket counter in the style of
// internal/scheduler, with mixed atomic/plain access seeded in.
package a

import "sync/atomic"

type pool struct {
	next  int64
	total int64
}

func (p *pool) claim() int64 {
	return atomic.AddInt64(&p.next, 1) - 1
}

func (p *pool) reset() {
	p.next = 0 // want `next.*accessed atomically.*used plainly`
}

func (p *pool) snapshot() int64 {
	return p.next // want `next.*accessed atomically.*used plainly`
}

func (p *pool) loadOK() int64 {
	return atomic.LoadInt64(&p.next)
}

func newPool() *pool {
	return &pool{next: 0} // construction: not an access
}

type snapshot struct{ Next int64 }

func (p *pool) snapshotLit() snapshot {
	return snapshot{Next: p.next} // want `next.*accessed atomically.*used plainly`
}

var counter int64

func bump() {
	atomic.AddInt64(&counter, 1)
}

func readPlain() int64 {
	return counter // want `counter.*accessed atomically.*used plainly`
}

func (p *pool) totalPlain() int64 {
	p.total++ // never touched atomically: fine
	return p.total
}

func readAllowed() int64 {
	return counter //fastcc:allow atomicmix -- single-threaded teardown
}
