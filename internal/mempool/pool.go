// Package mempool provides chunked, append-only arenas. FaSTCC threads push
// output nonzeros into thread-local chunk lists and the coordinator later
// concatenates those lists by reference, never copying element data — the
// Go analogue of the paper's 512 MB-chunk memory-pool layer for COO output
// construction (Section 4.2).
//
// For repeated contractions the package also provides the recycling layer
// the prepared-operand API builds on: ChunkCache returns drained chunk
// storage to a free pool instead of the garbage collector, Freelist keeps
// shaped scratch objects (accumulators) alive between runs, and SlicePool
// recycles flat scratch slices.
//
// # Checked mode
//
// Recycling bugs — a caller holding a buffer past Put/Release, a foreign
// chunk smuggled into a cache — are invisible to the garbage collector and
// the race detector. Building with -tags fastcc_checked arms this package's
// lifetime assertions: recycled storage of pointer-free element types is
// poisoned with a sentinel byte pattern when parked and verified when
// re-vended, so a write after the recycle point becomes a deterministic
// panic at the next Get instead of silent corruption; parking switches from
// sync.Pool to a deterministic LIFO so the panic is reproducible; and
// ChunkCache additionally tracks chunk provenance, rejecting (and counting)
// storage it never vended. The static side of the same contract is the
// poolescape analyzer in tools/analysis.
package mempool

import (
	"sync"
	"sync/atomic"

	"fastcc/internal/lockcheck"
)

// DefaultChunkLen is the number of elements per chunk when none is given.
// The paper uses 512 MB chunks; we size in elements so the pool is type-
// agnostic, and default to 64 Ki elements (1.5 MiB for a 24-byte triple) —
// large enough to amortize allocation, small enough for laptop workloads.
const DefaultChunkLen = 64 * 1024

// Pool is a chunked append-only arena of T. The zero value is NOT ready to
// use; call New. Pools are not safe for concurrent use: each worker owns one.
type Pool[T any] struct {
	chunkLen int
	chunks   [][]T
	n        int
	cache    *ChunkCache[T] // non-nil when chunks are drawn from a cache
}

// New returns a pool with the given chunk length (elements per allocation).
// chunkLen <= 0 selects DefaultChunkLen.
func New[T any](chunkLen int) *Pool[T] {
	if chunkLen <= 0 {
		chunkLen = DefaultChunkLen
	}
	return &Pool[T]{chunkLen: chunkLen}
}

// newChunk returns fresh chunk storage: recycled when the pool is backed by
// a ChunkCache, freshly allocated otherwise.
func (p *Pool[T]) newChunk() []T {
	if p.cache != nil {
		return p.cache.get()
	}
	return make([]T, 0, p.chunkLen)
}

// Append adds one element, allocating a new chunk when the tail is full.
//
//fastcc:hotpath
func (p *Pool[T]) Append(v T) { p.Extend(1)[0] = v }

// Extend appends up to n > 0 elements for the caller to write, and returns
// them: the next min(n, room) slots of the tail chunk, after opening a new
// chunk (from the cache, when the pool has one) if the tail is full, so
// every chunk but the last is full. Len counts them at once, so the caller
// writes every returned slot before the pool is read, and calls again for
// the rest of n.
//
//fastcc:hotpath
func (p *Pool[T]) Extend(n int) []T {
	if len(p.chunks) == 0 || len(p.chunks[len(p.chunks)-1]) == cap(p.chunks[len(p.chunks)-1]) {
		p.chunks = append(p.chunks, p.newChunk()) //fastcc:allow hotalloc -- chunk allocation IS the amortization, once per chunkLen elements
	}
	last := len(p.chunks) - 1
	c := p.chunks[last]
	k := min(n, cap(c)-len(c))
	p.chunks[last] = c[:len(c)+k]
	p.n += k
	return c[len(c) : len(c)+k]
}

// Len returns the number of elements appended.
func (p *Pool[T]) Len() int { return p.n }

// Chunks returns the underlying chunk slices. Callers must treat them as
// read-only; they remain owned by the pool.
func (p *Pool[T]) Chunks() [][]T { return p.chunks }

// Reset drops all elements but keeps the last chunk's storage for reuse.
// Under fastcc_checked the retained storage is poisoned, so a stale Chunks
// reference reading past Reset sees the sentinel pattern instead of
// plausible stale data.
func (p *Pool[T]) Reset() {
	if len(p.chunks) > 0 {
		last := p.chunks[len(p.chunks)-1][:0]
		poison(last)
		p.chunks = p.chunks[:0]
		p.chunks = append(p.chunks, last)
	}
	p.n = 0
}

// List concatenates pools by reference (pointer movement, no element
// copies) — the paper's master-thread concatenation of thread-local COO
// lists. Its elements are a sequence of views into the pools' chunks, in
// list order; the list also owns the whole chunks, which Release hands back.
type List[T any] struct {
	views  [][]T // the elements, in list order
	chunks [][]T // every chunk the list took over, whole
	n      int
}

// Concat builds a List from the pools' chunks without copying elements, in
// the order given.
//
// Ownership: pointer movement is the contract. The List takes over the
// pools' chunks, and List.Release (or output recycling) hands them back.
func Concat[T any](pools ...*Pool[T]) *List[T] {
	l := &List[T]{}
	for _, p := range pools {
		if p == nil {
			continue
		}
		for _, c := range p.chunks {
			if len(c) > 0 {
				l.chunks = append(l.chunks, c)
				l.n += len(c)
			}
		}
	}
	l.views = l.chunks
	return l
}

// Span is the elements [Lo, Hi) of pools[Pool], counted in append order.
type Span struct{ Pool, Lo, Hi int }

// ConcatSpans is Concat with the elements in span order instead of pool
// order: the list visits each span's elements in turn, as views into the
// chunks that hold them, and still takes over every chunk of every pool.
// The spans must cover each pool's elements exactly once.
//
// Ownership: as Concat. Release returns the whole chunks, never the views.
func ConcatSpans[T any](pools []*Pool[T], spans []Span) *List[T] {
	l := Concat(pools...)
	l.views = make([][]T, 0, len(spans))
	for _, s := range spans {
		p := pools[s.Pool]
		// Every chunk but a pool's last is full, so element e sits in
		// chunk e/chunkLen.
		for e := s.Lo; e < s.Hi; {
			c, off := p.chunks[e/p.chunkLen], e%p.chunkLen
			v := c[off:min(len(c), off+s.Hi-e)]
			l.views = append(l.views, v)
			e += len(v)
		}
	}
	return l
}

// Len returns the total number of elements in the list.
func (l *List[T]) Len() int { return l.n }

// ForEach calls fn for every element, in list order.
func (l *List[T]) ForEach(fn func(T)) {
	for _, c := range l.views {
		for i := range c {
			fn(c[i])
		}
	}
}

// Chunks returns the list's elements as runs of chunk storage, in list
// order (read-only).
func (l *List[T]) Chunks() [][]T { return l.views }

// ChunkCache recycles fixed-length chunk storage between contraction runs.
// Pools created via NewPool draw their chunks from the cache; once a run's
// output List has been fully copied out, Release returns every chunk for
// the next run. Safe for concurrent use (it wraps sync.Pool; a deterministic
// locked LIFO under fastcc_checked), so parallel contractions share one
// cache.
type ChunkCache[T any] struct {
	chunkLen int
	pool     sync.Pool
	dropped  atomic.Uint64
	// vendedN/returnedN count chunks handed to pools and chunks that came
	// back through Release; their difference is the leak-accounting gauge
	// Outstanding.
	vendedN, returnedN atomic.Int64
	ck                 checkedCache[T] // zero-sized unless built with fastcc_checked
}

// NewChunkCache returns a cache of chunks with the given length; <= 0
// selects DefaultChunkLen.
func NewChunkCache[T any](chunkLen int) *ChunkCache[T] {
	if chunkLen <= 0 {
		chunkLen = DefaultChunkLen
	}
	return &ChunkCache[T]{chunkLen: chunkLen}
}

// NewPool returns an empty Pool whose chunks come from (and may return to)
// this cache.
func (c *ChunkCache[T]) NewPool() *Pool[T] {
	return &Pool[T]{chunkLen: c.chunkLen, cache: c}
}

func (c *ChunkCache[T]) get() []T {
	c.vendedN.Add(1)
	if b, ok := c.unpark(); ok {
		return b
	}
	b := make([]T, 0, c.chunkLen)
	c.noteVended(b)
	return b
}

// Outstanding reports how many vended chunks have not yet come back through
// Release — the cache's leak-accounting gauge. A workload that recycles
// every output list leaves the gauge where it found it; a positive drift
// means some caller is retaining chunk storage. Foreign chunks smuggled
// into Release are dropped without counting as returns, so in normal
// (unchecked) builds a same-capacity foreign chunk can skew the gauge low;
// the fastcc_checked build's provenance tracking keeps it exact.
func (c *ChunkCache[T]) Outstanding() int64 {
	return c.vendedN.Load() - c.returnedN.Load()
}

// Dropped reports how many chunks Release rejected instead of recycling:
// wrong-capacity storage always, and storage this cache never vended under
// fastcc_checked. A nonzero count means some caller is feeding the cache
// chunks it does not own — recycling those would hand one run's live memory
// to another.
func (c *ChunkCache[T]) Dropped() uint64 { return c.dropped.Load() }

// Release returns all chunk storage of l to the cache and empties l. Call
// only when every element has been copied out: the chunks will be handed to
// future pools and overwritten. Wrong-capacity or foreign chunks are not
// recycled — they are dropped for the garbage collector and counted in
// Dropped, because a chunk the cache cannot vouch for may still be
// referenced by its real owner.
//
// Ownership: this is the recycle point; the cache owns l's chunks after
// this call.
func (c *ChunkCache[T]) Release(l *List[T]) {
	if l == nil {
		return
	}
	for _, ch := range l.chunks {
		if cap(ch) != c.chunkLen || !c.vended(ch) {
			c.dropped.Add(1)
			continue
		}
		c.returnedN.Add(1)
		c.park(ch[:0])
	}
	l.views, l.chunks = nil, nil
	l.n = 0
}

// Freelist is a bounded, concurrency-safe free list of reusable values
// grouped by a comparable key — the engine parks per-worker accumulators
// here between runs, keyed by their shape, so repeated contractions stop
// reallocating tile-sized buffers.
type Freelist[K comparable, V any] struct {
	mu     lockcheck.Mutex[freelistRank] // leaf below the core lifecycle lock; park/vend only
	perKey int
	items  map[K][]V
	ck     checkedFreelist[K, V] // zero-sized unless built with fastcc_checked
}

// freelistRank places Freelist.mu in the lock-rank hierarchy
// (internal/lockcheck): rank 3, not exclusive, below the core lifecycle
// lock. fastcc_checked builds enforce it at runtime.
type freelistRank struct{}

func (freelistRank) LockRank() (int, bool) { return 3, false }
func (freelistRank) RankLabel() string     { return "Freelist.mu" }

// NewFreelist returns a free list keeping at most perKey parked values per
// key (<= 0 selects 16).
func NewFreelist[K comparable, V any](perKey int) *Freelist[K, V] {
	if perKey <= 0 {
		perKey = 16
	}
	return &Freelist[K, V]{perKey: perKey, items: make(map[K][]V)}
}

// Get pops a parked value for key, reporting whether one was available.
func (f *Freelist[K, V]) Get(k K) (V, bool) {
	f.mu.Lock()
	vs := f.items[k]
	if len(vs) == 0 {
		f.mu.Unlock()
		var zero V
		return zero, false
	}
	v := vs[len(vs)-1]
	var zero V
	vs[len(vs)-1] = zero // do not pin the parked value through the backing array
	f.items[k] = vs[:len(vs)-1]
	f.mu.Unlock()
	f.note(k, v) // checked builds re-affirm the vended value's key binding
	return v, true
}

// Note registers v as belonging to key k for the checked build's provenance
// validation; a later Put of v under any other key panics at the Put instead
// of vending a wrong-shaped value at a future Get. Callers that construct a
// value for a specific key (the engine's per-shape accumulators) should Note
// it at construction time. A no-op without -tags fastcc_checked.
func (f *Freelist[K, V]) Note(k K, v V) { f.note(k, v) }

// Put parks v for future Get(k) calls; full lists drop v for the GC. Under
// fastcc_checked, a value whose recorded provenance names a different key
// panics here — the wrong-shaped-accumulator-under-the-right-key bug is
// rejected at the recycle point, not discovered at reuse. A value never seen
// before is bound to k by this Put.
//
// Ownership: this is the recycle point; the freelist owns v after this
// call.
func (f *Freelist[K, V]) Put(k K, v V) {
	f.checkPut(k, v)
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.items[k]) >= f.perKey {
		return
	}
	f.items[k] = append(f.items[k], v)
}

// SlicePool recycles variable-capacity scratch slices (the partition,
// table-build and sorted-tile scratch). Safe for concurrent use.
type SlicePool[T any] struct {
	pool    sync.Pool
	dropped atomic.Uint64
	// vended/returned count Get and Put calls; their difference is the
	// leak-accounting gauge Outstanding.
	vended, returned atomic.Int64
	ck               checkedSlice[T] // zero-sized unless built with fastcc_checked
}

// Get returns an empty slice with capacity at least capHint, recycled when
// a large-enough one is parked.
func (s *SlicePool[T]) Get(capHint int) []T {
	s.vended.Add(1)
	if b, ok := s.unpark(); ok && cap(b) >= capHint {
		return b
	}
	return make([]T, 0, capHint)
}

// Outstanding reports how many Get results have not come back through Put —
// the pool's leak-accounting gauge. A balanced workload leaves it where it
// found it.
func (s *SlicePool[T]) Outstanding() int64 {
	return s.vended.Load() - s.returned.Load()
}

// Put parks b for reuse; the caller must not retain it. Zero-capacity
// slices carry no storage worth parking and are dropped with a count
// (still a return for leak accounting: the caller handed back what it held).
//
// Ownership: this is the recycle point; the pool owns b after this call.
func (s *SlicePool[T]) Put(b []T) {
	s.returned.Add(1)
	if cap(b) == 0 {
		s.dropped.Add(1)
		return
	}
	s.park(b[:0])
}

// Dropped reports how many Put calls were rejected (zero-capacity slices).
func (s *SlicePool[T]) Dropped() uint64 { return s.dropped.Load() }
