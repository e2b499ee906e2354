// Shard-cache lifecycle: byte-budgeted LRU eviction over every Operand's
// shard map, with per-shard pinning so in-flight contractions block
// reclamation.
//
// The ownership protocol, in one place:
//
//   - One mutex, shardLRU.mu, guards every piece of lifecycle state: the
//     LRU and the tenant ledger, every Operand's shard map, and each
//     Shard's pin count, doomed/retired flags, claims and spill handle.
//     Retiring happens only at pin count zero, and a retired shard is
//     never pinned again: Operand.Shard replaces it.
//   - Operand.Shard returns the shard pinned (+1); the engine holds that
//     pin until execute returns, after the pool has joined every worker.
//     Eviction can therefore never reclaim tables a tile kernel is reading.
//   - Every built shard is charged to one process-wide LRU (shardLRU).
//     When the resident footprint exceeds the budget, the coldest
//     unpinned shards are retired and their sealed arenas recycled through
//     mempool — unless a spill directory is configured, in which case the
//     tables are serialized to the disk tier first (spill.go) and the next
//     pin reloads them instead of rebuilding: RAM → disk → rebuild instead
//     of RAM → rebuild.
//   - Operand.Close / the prepared API's Drop unmap every cached shard and
//     mark the pinned ones doomed: unpinned shards are reclaimed before
//     Close returns, pinned ones at their last Unpin. The Operand itself
//     stays usable — the next Shard call simply rebuilds.
//
// Builds, spill IO and recycling never run under the lock: the mutex
// decides who owns a shard's storage, and the owner does the work after
// unlocking. lockcheck ranks the mutex exclusive, so a re-entrant
// acquisition panics under fastcc_checked instead of deadlocking.
package core

import (
	"fastcc/internal/lockcheck"
	"fastcc/internal/metrics"
	"fastcc/internal/model"
	"fastcc/internal/spill"
)

// DefaultBudgetLLCMultiple sizes the default shard-cache budget as a
// multiple of the host's last-level cache (model.Auto): big enough that
// steady-state reuse workloads never thrash (shards are LLC-sized by
// construction), small enough to bound a long-lived process that touches
// many operands.
const DefaultBudgetLLCMultiple = 64

// Unpin releases one pin reference. When the last pin leaves a doomed shard,
// the releaser reclaims it — Close/Drop returned long ago; this is the
// deferred half of that drop.
func (s *Shard) Unpin() {
	c := &shardLRU
	c.mu.Lock()
	if s.pins <= 0 {
		c.mu.Unlock()
		panic("core: Shard.Unpin without a matching pin")
	}
	s.pins--
	reclaim := s.pins == 0 && s.doomed && !s.retired
	if reclaim {
		c.retireLocked(s)
	}
	c.mu.Unlock()
	if reclaim {
		c.counters.Drops.Add(1)
		s.recycle()
	}
}

// lruRank places shardCache.mu in the lock-rank hierarchy
// (internal/lockcheck): rank 1, exclusive, so nothing ranked — itself
// included — is acquired while it is held. fastcc_checked builds enforce it
// at runtime.
type lruRank struct{}

func (lruRank) LockRank() (int, bool) { return 1, true }
func (lruRank) RankLabel() string     { return "shardCache.mu" }

// shardCache is the process-wide byte-budgeted LRU over every built shard.
// Shards are linked intrusively (lruPrev/lruNext on Shard), head most
// recently used. One instance exists (shardLRU); operands register every
// completed build. The budget is process state: SetShardBudget is its only
// writer, and engine runs only enforce it.
type shardCache struct {
	mu     lockcheck.Mutex[lruRank] // the one lifecycle lock; see the top of this file
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

// insert charges a freshly built or reloaded shard to the cache and applies
// the budget; readers, the tenants that had a reloaded shard warm when it
// spilled, are credited with the spill read. The shard arrives pinned by
// its builder, so it can never be its own victim.
func (c *shardCache) insert(s *Shard, readers []string) {
	c.mu.Lock()
	c.creditTenantSpillLocked(readers, 0, false)
	c.pushFrontLocked(s)
	c.bytes += s.bytes
	c.n++
	victims := c.enforceLocked()
	c.mu.Unlock()
	c.reap(victims)
}

// retireLocked takes an unpinned shard out of the cache: it is never pinned
// again (Operand.Shard replaces a retired entry), it leaves the LRU, and
// every claimant is uncharged. The caller holds c.mu and reclaims the
// storage after unlocking.
func (c *shardCache) retireLocked(s *Shard) {
	s.retired = true
	c.removeLocked(s)
	c.unclaimAllLocked(s)
}

// enforceLocked retires cold unpinned shards until the resident footprint
// fits the budget; the caller reaps the returned victims after releasing
// the lock. Pinned shards are skipped — a fully pinned cache may
// legitimately sit over budget. Victims stay mapped, so reap can turn them
// into spilled stubs.
//
// Victim order is two passes over the LRU: first the cold shards claimed by
// an over-quota tenant (so one tenant blowing its quota is squeezed before
// anyone else's warm set), then plain coldest-first.
func (c *shardCache) enforceLocked() []*Shard {
	if c.budget <= 0 || c.bytes <= c.budget {
		return nil
	}
	var victims []*Shard
	for _, overQuotaOnly := range []bool{true, false} {
		for s := c.tail; s != nil && c.bytes > c.budget; {
			prev := s.lruPrev
			if s.pins == 0 && (!overQuotaOnly || c.overQuotaClaimLocked(s)) {
				c.retireLocked(s)
				victims = append(victims, s)
			}
			s = prev
		}
	}
	return victims
}

// reap reclaims eviction victims outside the cache lock. With a spill
// directory configured, each victim is offered to the disk tier first: a
// successful spill leaves the shard mapped as a spilled stub (retired,
// tables recycled, disk handle installed) that the next Operand.Shard
// reloads instead of rebuilding. The rest are unmapped under one lock and
// recycled. Either way the eviction is counted — spilling is what eviction
// does, not an alternative to it.
func (c *shardCache) reap(victims []*Shard) {
	var dead []*Shard
	for _, s := range victims {
		c.counters.Evictions.Add(1)
		c.counters.EvictedBytes.Add(s.bytes)
		if !trySpill(s) {
			dead = append(dead, s)
		}
	}
	if len(dead) == 0 {
		return
	}
	c.mu.Lock()
	for _, s := range dead {
		s.owner.unmapLocked(s)
	}
	c.mu.Unlock()
	for _, s := range dead {
		s.recycle()
	}
}

func (c *shardCache) stats() metrics.CacheSnapshot {
	snap := c.counters.Snapshot()
	c.mu.Lock()
	snap.CachedBytes = c.bytes
	snap.Shards = c.n
	for s := c.head; s != nil; s = s.lruNext {
		if s.pins > 0 {
			snap.PinnedBytes += s.bytes
		}
	}
	c.mu.Unlock()
	files, bytes, _ := SpillDirStats()
	snap.SpillFiles, snap.SpillDiskBytes = int64(files), bytes
	return snap
}

// The LRU link fields are lifecycle state owned by this cache and touched
// only under c.mu, never by the readers of the shard's tables.
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

// removeLocked uncharges s if it is still listed.
func (c *shardCache) removeLocked(s *Shard) {
	if !s.inLRU {
		return
	}
	c.unlinkLocked(s)
	c.bytes -= s.bytes
	c.n--
}

// unmapLocked removes s from its operand's shard map if (and only if) the
// map still holds this exact shard — a rebuild may already have replaced
// the key, and that replacement must not be disturbed. Caller holds
// shardLRU.mu.
func (o *Operand) unmapLocked(s *Shard) {
	if o.shards[s.Key] == s {
		delete(o.shards, s.Key)
	}
}

// Close unmaps every cached shard: unpinned ones are reclaimed before Close
// returns, pinned ones are doomed and reclaimed at their last Unpin. The
// Operand remains usable — a later Shard call rebuilds — so Close is "drop
// the cache", not "destroy the operand". Callers that wrap transient
// matrices (the one-shot Contract paths) use it to keep dead operands from
// pinning the global LRU.
func (o *Operand) Close() {
	c := &shardLRU
	var dead []*Shard
	var handles []*spill.Handle
	c.mu.Lock()
	for k, s := range o.shards {
		delete(o.shards, k)
		switch {
		case s.spill != nil:
			// A spilled stub has nothing in RAM; what it owns is the disk
			// image.
			handles = append(handles, s.spill)
			s.spill = nil
		case s.retired:
			// Mid-eviction: the evictor owns the storage, and its spill
			// finds the shard unmapped and discards the file.
		case s.pins == 0:
			c.retireLocked(s)
			dead = append(dead, s)
		default:
			s.doomed = true
		}
	}
	c.mu.Unlock()
	c.counters.Drops.Add(int64(len(dead)))
	for _, s := range dead {
		s.recycle()
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
// footprint is not final), and retired entries are excluded — this is the
// accounting view the prepared API's SizeBytes/Warm surface, not a
// synchronization point.
func (o *Operand) Resident() (bytes int64, shards int) {
	shardLRU.mu.Lock()
	defer shardLRU.mu.Unlock()
	for _, s := range o.shards {
		if s.retired {
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
