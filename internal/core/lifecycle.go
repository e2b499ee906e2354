// Shard-cache lifecycle: byte-budgeted LRU eviction over every Operand's
// shard map, with per-shard pinning so in-flight contractions block
// reclamation.
//
// The ownership protocol, in one place:
//
//   - A Shard's lifetime state is a single atomic word: bit 0 retired,
//     bit 1 doomed, bits 2+ the pin refcount. Pinning fails only on a
//     retired shard; retiring succeeds only at refcount zero. Every
//     transition is a CAS, so pin vs evict races resolve atomically with
//     no shard-level lock.
//   - Operand.Shard returns the shard pinned (+1); the engine holds that
//     pin across the run and additionally pins per worker through the
//     scheduler Guard, releasing at each worker's exit. Eviction can
//     therefore never reclaim tables a tile kernel is reading.
//   - Every built shard is charged to one process-wide LRU (shardLRU).
//     When the resident footprint exceeds the budget, the coldest
//     unpinned shards are retired, unmapped from their owning Operand,
//     and their sealed arenas recycled through mempool — unless a spill
//     directory is configured, in which case the tables are serialized to
//     the disk tier first (spill.go) and the next pin reloads them instead
//     of rebuilding: RAM → disk → rebuild instead of RAM → rebuild.
//   - Operand.Close / the prepared API's Drop mark every cached shard
//     doomed: unpinned shards are reclaimed immediately, pinned ones at
//     their last Unpin. The Operand itself stays usable — the next Shard
//     call simply rebuilds.
//
// Lock ordering: shardLRU.mu and Operand.mu are never held together.
// Retirement happens under shardLRU.mu (or lock-free via doom/Unpin);
// unmapping and recycling always run after shardLRU.mu is released.
package core

import (
	"sync/atomic"

	"fastcc/internal/lockcheck"
	"fastcc/internal/metrics"
	"fastcc/internal/model"
	"fastcc/internal/spill"
)

// Shard lifetime state word layout (Shard.state). A spilled shard carries
// retired|spilled: the retired bit is what keeps tryPin failing (its RAM
// tables are gone), the spilled bit records that a disk image exists —
// Operand.Shard turns that stub into a reload instead of a rebuild.
const (
	shardRetired = uint64(1) << 0 // storage reclaimed or queued for it; pins must fail
	shardDoomed  = uint64(1) << 1 // Close/Drop called; retire at refcount zero
	shardSpilled = uint64(1) << 2 // RAM tables reclaimed, image lives on the disk tier
	shardPinInc  = uint64(1) << 3 // one pin reference
)

// DefaultBudgetLLCMultiple sizes the default shard-cache budget as a
// multiple of the host's last-level cache (model.Auto): big enough that
// steady-state reuse workloads never thrash (shards are LLC-sized by
// construction), small enough to bound a long-lived process that touches
// many operands.
const DefaultBudgetLLCMultiple = 64

// tryPin takes one pin reference, failing only when the shard is already
// retired (its tables are gone or going). Safe from any goroutine.
//
//fastcc:hotpath
func (s *Shard) tryPin() bool {
	for {
		st := s.state.Load()
		if st&shardRetired != 0 {
			return false
		}
		if s.state.CompareAndSwap(st, st+shardPinInc) {
			return true
		}
	}
}

// mustPin is tryPin for callers that already hold another pin on s (the
// scheduler guard, pinning per-worker under the engine's run-level pin):
// retirement is impossible while any pin is held, so failure is a lifecycle
// protocol violation, not a recoverable miss.
func (s *Shard) mustPin() {
	if !s.tryPin() {
		panic("core: mustPin on a retired shard: a pin was released while the engine still held the shard")
	}
}

// Unpin releases one pin reference. When the last pin leaves a doomed shard,
// the releaser reclaims it — Close/Drop returned long ago; this is the
// deferred half of that drop.
func (s *Shard) Unpin() {
	st := s.state.Add(^(shardPinInc) + 1) // state -= shardPinInc
	if st>>3 > uint64(1)<<40 {
		panic("core: Shard.Unpin without a matching pin")
	}
	if st&shardDoomed != 0 && st&shardRetired == 0 && st>>3 == 0 {
		if s.tryRetire() {
			shardLRU.finishRetire(s, &shardLRU.counters.Drops)
		}
	}
}

// tryRetire moves the shard to the retired state, succeeding only at
// refcount zero. Exactly one caller wins; the winner owns reclamation.
func (s *Shard) tryRetire() bool {
	for {
		st := s.state.Load()
		if st&shardRetired != 0 || st>>3 != 0 {
			return false
		}
		if s.state.CompareAndSwap(st, st|shardRetired) {
			return true
		}
	}
}

// doom marks the shard for reclamation at its next idle moment: immediately
// when unpinned, at the last Unpin otherwise.
func (s *Shard) doom() {
	for {
		st := s.state.Load()
		if st&(shardDoomed|shardRetired) != 0 {
			break
		}
		if s.state.CompareAndSwap(st, st|shardDoomed) {
			break
		}
	}
	if s.tryRetire() {
		shardLRU.finishRetire(s, &shardLRU.counters.Drops)
	}
}

// pinned reports whether any pin is currently held (a racy gauge, used only
// for stats).
func (s *Shard) pinnedNow() bool { return s.state.Load()>>3 != 0 }

// lruRank places shardCache.mu in the lock-rank hierarchy
// (internal/lockcheck): rank 1, exclusive, so it never nests with
// Operand.mu in either order. fastcc_checked builds enforce it at runtime.
type lruRank struct{}

func (lruRank) LockRank() (int, bool) { return 1, true }
func (lruRank) RankLabel() string     { return "shardCache.mu" }

// shardCache is the process-wide byte-budgeted LRU over every built shard.
// Shards are linked intrusively (lruPrev/lruNext on Shard), head most
// recently used. One instance exists (shardLRU); operands register every
// completed build. The budget is process state: SetShardBudget is its only
// writer, and engine runs only enforce it.
type shardCache struct {
	mu     lockcheck.Mutex[lruRank] // never nested with Operand.mu, in either order
	budget int64                    // bytes; <= 0 means unlimited
	bytes  int64                    // resident footprint of listed shards
	head   *Shard
	tail   *Shard
	n      int64

	// tenants maps tenant ID to its accounting state (tenant.go): quota,
	// resident charge, and lifecycle counters. Guarded by mu.
	tenants map[string]*tenantAccount

	counters metrics.CacheCounters
}

// shardLRU is the engine's single shard cache, starting at the default
// budget.
var shardLRU = shardCache{budget: resolveBudget(0)}

// resolveBudget maps the SetShardBudget convention onto cache semantics:
// > 0 is an explicit byte budget, < 0 disables eviction, 0 derives the
// default from the host's LLC size.
func resolveBudget(b int64) int64 {
	switch {
	case b > 0:
		return b
	case b < 0:
		return 0
	default:
		return model.Auto().L3Bytes * DefaultBudgetLLCMultiple
	}
}

// SetShardBudget sets the process-wide shard-cache byte budget and enforces
// it immediately: > 0 is an explicit budget, < 0 disables eviction, 0
// restores the host-derived default. Engine runs never write the budget;
// each settles it as its pins drop.
func SetShardBudget(bytes int64) {
	shardLRU.setBudget(resolveBudget(bytes))
}

// CacheStats returns the lifecycle counters plus resident-state gauges of
// the process-wide shard cache.
func CacheStats() metrics.CacheSnapshot {
	return shardLRU.stats()
}

// OutputChunksOutstanding reports how many output chunk buffers are checked
// out of the engine's chunk cache — the leak-accounting gauge tests assert
// returns to its baseline once results are recycled.
func OutputChunksOutstanding() int64 { return outputChunks.Outstanding() }

func (c *shardCache) setBudget(b int64) {
	c.mu.Lock()
	c.budget = b
	victims := c.enforceLocked()
	c.mu.Unlock()
	c.reap(victims)
}

// settle is each engine run's last step, after its pins drop: it brings
// tenant's account back under its quota (tenant.go; a no-op for "" or a
// tenant without an account) and then the whole cache back under its
// budget, so once the last in-flight contraction returns, the resident
// shards fit both.
func (c *shardCache) settle(tenant string) {
	c.mu.Lock()
	victims := c.enforceTenantLocked(tenant)
	victims = append(victims, c.enforceLocked()...)
	c.mu.Unlock()
	c.reap(victims)
}

// insert charges a freshly built shard to the cache and applies the budget.
// The shard arrives pinned by its builder, so it can never be its own
// victim.
func (c *shardCache) insert(s *Shard) {
	c.mu.Lock()
	c.pushFrontLocked(s)
	c.bytes += s.bytes
	c.n++
	victims := c.enforceLocked()
	c.mu.Unlock()
	c.reap(victims)
}

// touch marks s most recently used. A shard already reclaimed (not in the
// list) is left alone.
func (c *shardCache) touch(s *Shard) {
	c.mu.Lock()
	if s.inLRU {
		c.unlinkLocked(s)
		c.pushFrontLocked(s)
	}
	c.mu.Unlock()
}

// finishRetire uncharges an already-retired shard and reclaims its storage;
// the caller must have won tryRetire. cause is the counter this reclamation
// charges (Drops for Close/Drop, Evictions via enforce's own path).
func (c *shardCache) finishRetire(s *Shard, cause *atomic.Int64) {
	c.mu.Lock()
	c.removeLocked(s)
	c.unclaimAllLocked(s)
	c.mu.Unlock()
	cause.Add(1)
	s.owner.unmap(s)
	s.recycle()
}

// enforceLocked retires cold unpinned shards until the resident footprint
// fits the budget, unlinking them from the list; the caller recycles the
// returned victims after releasing the lock. Pinned shards are skipped —
// a fully pinned cache may legitimately sit over budget.
//
// Victim order is two passes over the LRU: first the cold shards claimed by
// an over-quota tenant (so one tenant blowing its quota is squeezed before
// anyone else's warm set), then plain coldest-first.
func (c *shardCache) enforceLocked() []*Shard {
	if c.budget <= 0 || c.bytes <= c.budget {
		return nil
	}
	var victims []*Shard
	take := func(s *Shard) {
		c.removeLocked(s)
		c.unclaimAllLocked(s)
		victims = append(victims, s)
	}
	for s := c.tail; s != nil && c.bytes > c.budget; {
		prev := s.lruPrev
		if c.overQuotaClaimLocked(s) && s.tryRetire() {
			take(s)
		}
		s = prev
	}
	for s := c.tail; s != nil && c.bytes > c.budget; {
		prev := s.lruPrev
		if s.tryRetire() {
			take(s)
		}
		s = prev
	}
	return victims
}

// reap unmaps and recycles eviction victims outside the cache lock. With a
// spill directory configured, each victim is offered to the disk tier
// first: a successful spill leaves the shard mapped as a spilled stub
// (retired, tables recycled, disk handle installed) that the next
// Operand.Shard reloads instead of rebuilding. Either way the eviction is
// counted — spilling is what eviction does, not an alternative to it.
func (c *shardCache) reap(victims []*Shard) {
	for _, s := range victims {
		c.counters.Evictions.Add(1)
		c.counters.EvictedBytes.Add(s.bytes)
		if trySpill(s) {
			continue
		}
		s.owner.unmap(s)
		s.recycle()
	}
}

func (c *shardCache) stats() metrics.CacheSnapshot {
	snap := c.counters.Snapshot()
	c.mu.Lock()
	snap.CachedBytes = c.bytes
	snap.Shards = c.n
	for s := c.head; s != nil; s = s.lruNext {
		if s.pinnedNow() {
			snap.PinnedBytes += s.bytes
		}
	}
	c.mu.Unlock()
	files, bytes, _ := SpillDirStats()
	snap.SpillFiles, snap.SpillDiskBytes = int64(files), bytes
	return snap
}

// The LRU link fields are lifecycle state owned by this cache and touched
// only under c.mu, never by the lock-free readers of the shard's tables.
func (c *shardCache) pushFrontLocked(s *Shard) {
	s.lruPrev = nil
	s.lruNext = c.head
	if c.head != nil {
		c.head.lruPrev = s
	}
	c.head = s
	if c.tail == nil {
		c.tail = s
	}
	s.inLRU = true
}

func (c *shardCache) unlinkLocked(s *Shard) {
	if s.lruPrev != nil {
		s.lruPrev.lruNext = s.lruNext
	} else {
		c.head = s.lruNext
	}
	if s.lruNext != nil {
		s.lruNext.lruPrev = s.lruPrev
	} else {
		c.tail = s.lruPrev
	}
	s.lruPrev, s.lruNext = nil, nil
	s.inLRU = false
}

// removeLocked uncharges s if it is still listed; safe to call twice (the
// doom path and the eviction path can both reach a shard's retirement).
func (c *shardCache) removeLocked(s *Shard) {
	if !s.inLRU {
		return
	}
	c.unlinkLocked(s)
	c.bytes -= s.bytes
	c.n--
}

// unmap removes s from its operand's shard map if (and only if) the map
// still holds this exact shard — a rebuild may already have replaced the
// key, and that replacement must not be disturbed.
func (o *Operand) unmap(s *Shard) {
	o.mu.Lock()
	if cur, ok := o.shards[s.Key]; ok && cur == s {
		delete(o.shards, s.Key)
	}
	o.mu.Unlock()
}

// Close dooms every cached shard: unpinned ones are reclaimed before Close
// returns, pinned ones at their last Unpin. The Operand remains usable —
// a later Shard call rebuilds — so Close is "drop the cache", not "destroy
// the operand". Callers that wrap transient matrices (the one-shot Contract
// paths) use it to keep dead operands from pinning the global LRU.
func (o *Operand) Close() {
	o.mu.Lock()
	doomed := make([]*Shard, 0, len(o.shards))
	var handles []*spill.Handle
	for k, s := range o.shards {
		// Spilled stubs have nothing in RAM to doom; what they own is the
		// disk image, taken here under o.mu (doom's tryRetire would fail on
		// the already-retired stub and leak the file).
		if h := s.takeSpillLocked(); h != nil {
			handles = append(handles, h)
		} else {
			doomed = append(doomed, s)
		}
		delete(o.shards, k)
	}
	o.mu.Unlock()
	for _, s := range doomed {
		s.doom()
	}
	// Keep-mode directories turn the dropped images into orphans adoptable
	// by a restarted process; otherwise Release deletes them.
	for _, h := range handles {
		h.Dir().Release(h)
	}
}

// Warm builds (or confirms) the shard for key without keeping a pin,
// reporting whether this call performed the build. It is Shard+Unpin: the
// eager-build entry point for the prepared API, where the caller wants the
// Build phase done now but holds no claim against eviction.
func (o *Operand) Warm(key ShardKey, threads int) bool {
	s, built := o.Shard(key, threads)
	s.Unpin()
	return built
}

// Resident reports the operand's cache residency: the summed footprint and
// count of its built, still-live shards. In-flight builds count zero (their
// footprint is not final), retired-but-unmapped entries are excluded — this
// is the non-blocking accounting view the prepared API's SizeBytes/Warm
// surface, not a synchronization point.
func (o *Operand) Resident() (bytes int64, shards int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, s := range o.shards {
		if s.state.Load()&shardRetired != 0 {
			continue
		}
		select {
		case <-s.built:
			bytes += s.bytes
			shards++
		default:
		}
	}
	return bytes, shards
}
