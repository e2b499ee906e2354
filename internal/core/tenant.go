// Per-tenant shard-cache accounting on top of the byte-budgeted LRU
// (lifecycle.go). The global budget bounds the process; tenant accounts
// bound each tenant's slice of it:
//
//   - Every shard a tenanted run builds or reuses is *claimed* for that
//     tenant: the shard's full footprint is charged to the tenant's
//     account, and the claim is recorded on the shard. A shard shared by
//     several tenants is charged to each of them in full (conservative,
//     and the only scheme under which "evicting this shard relieves every
//     claimant" holds), while the global budget keeps charging actual
//     bytes exactly once.
//   - A tenant over its quota is brought back under it by retiring its
//     own cold (unpinned) claimed shards, coldest first. Enforcement runs
//     at claim time and again when each tenanted run releases its pins,
//     so at quiescence no tenant's resident charge exceeds its quota.
//   - The global budget's eviction order prefers the cold shards of
//     over-quota tenants before falling back to plain LRU, so one tenant
//     blowing its quota cannot push well-behaved tenants' warm sets out.
//
// All account state (the accounts map, each account's gauges, and the
// claim lists on shards) is guarded by shardLRU.mu, like the rest of the
// lifecycle; victims are reclaimed after the lock is released.
package core

import (
	"fmt"
	"sort"

	"fastcc/internal/metrics"
)

// tenantMaxLen bounds tenant IDs so they stay usable as HTTP header values
// and map keys without pathological memory cost.
const tenantMaxLen = 128

// ValidTenant checks the tenant-ID grammar shared by WithTenant,
// SetTenantQuota, DropTenant and the server's tenant header: 1–128 bytes of
// printable ASCII with no spaces, so an ID travels unmangled through
// headers, logs and URLs. A bad ID is an ErrBadOption.
func ValidTenant(id string) error {
	if id == "" {
		return fmt.Errorf("%w: tenant ID is empty", ErrBadOption)
	}
	if len(id) > tenantMaxLen {
		return fmt.Errorf("%w: tenant ID exceeds %d bytes", ErrBadOption, tenantMaxLen)
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c <= 0x20 || c >= 0x7f {
			return fmt.Errorf("%w: tenant ID byte %d (0x%02x) is not printable ASCII", ErrBadOption, i, c)
		}
	}
	return nil
}

// tenantAccount is one tenant's shard-cache accounting, guarded by
// shardLRU.mu.
type tenantAccount struct {
	quota  int64 // bytes; <= 0 means no per-tenant quota
	bytes  int64 // resident footprint of claimed live shards
	shards int64 // claimed live shard count

	hits, misses            int64 // this tenant's shard fetches: cached vs built
	evictions, evictedBytes int64 // quota-driven retirements of its claims

	// Disk-tier round trips of shards this tenant had claimed at eviction
	// time (spill.go credits these via the shard's captured claim list).
	spillWrites, spillReads, spillBytes int64
}

// overQuota reports whether the account's resident charge exceeds its quota.
func (a *tenantAccount) overQuota() bool { return a.quota > 0 && a.bytes > a.quota }

// accountLocked returns (lazily creating) the account for id. Caller holds
// c.mu.
func (c *shardCache) accountLocked(id string) *tenantAccount {
	if c.tenants == nil {
		c.tenants = make(map[string]*tenantAccount)
	}
	a := c.tenants[id]
	if a == nil {
		a = &tenantAccount{}
		c.tenants[id] = a
	}
	return a
}

// claimedByLocked reports whether s carries a claim for tenant id. Caller
// holds c.mu; claim lists are only ever touched under it.
func (s *Shard) claimedByLocked(id string) bool {
	for _, t := range s.claims {
		if t == id {
			return true
		}
	}
	return false
}

// overQuotaClaimLocked reports whether any of s's claimants is over quota —
// the global eviction policy's preference test. Caller holds c.mu.
func (c *shardCache) overQuotaClaimLocked(s *Shard) bool {
	for _, t := range s.claims {
		if a := c.tenants[t]; a != nil && a.overQuota() {
			return true
		}
	}
	return false
}

// unclaimAllLocked uncharges s from every claimant and clears the claim
// list; caller holds c.mu.
func (c *shardCache) unclaimAllLocked(s *Shard) {
	for _, t := range s.claims {
		if a := c.tenants[t]; a != nil {
			a.bytes -= s.bytes
			a.shards--
		}
	}
	// Keep the claimant list on the shard past the uncharge: if this
	// retirement spills the tables, the disk-tier round trip is credited to
	// the tenants that had the shard warm (creditTenantSpillLocked).
	s.spillClaims = s.claims
	s.claims = nil
}

// claimShard charges s to tenant's account (once per tenant per shard
// lifetime) and records the fetch as a hit or a build. The caller must hold
// a pin on s — the engine claims right after buildShards — so the shard
// cannot retire out from under the charge. Quota enforcement runs
// immediately, but the just-claimed shard itself is pinned and therefore
// never its own victim; the run's exit settle (shardCache.settle) finishes
// the job once the pins drop.
func claimShard(s *Shard, tenant string, built bool) {
	c := &shardLRU
	c.mu.Lock()
	a := c.accountLocked(tenant)
	if built {
		a.misses++
	} else {
		a.hits++
	}
	var victims []*Shard
	if !s.claimedByLocked(tenant) {
		s.claims = append(s.claims, tenant)
		a.bytes += s.bytes
		a.shards++
		victims = c.enforceTenantLocked(tenant)
	}
	c.mu.Unlock()
	c.reap(victims)
}

// enforceTenantLocked collects quota victims for one tenant: cold claimed
// shards from the LRU tail until the account fits. Pinned shards are
// skipped — an in-flight working set may legitimately sit over quota until
// its pins drop. The caller reaps the victims after releasing c.mu.
func (c *shardCache) enforceTenantLocked(id string) []*Shard {
	a := c.tenants[id]
	if a == nil || !a.overQuota() {
		return nil
	}
	var victims []*Shard
	for s := c.tail; s != nil && a.overQuota(); {
		prev := s.lruPrev
		if s.pins == 0 && s.claimedByLocked(id) {
			a.evictions++
			a.evictedBytes += s.bytes
			c.retireLocked(s)
			victims = append(victims, s)
		}
		s = prev
	}
	return victims
}

// SetTenantQuota sets tenant id's shard-cache quota in bytes (<= 0 removes
// the quota) and enforces it immediately against the tenant's cold claims.
func SetTenantQuota(id string, bytes int64) {
	c := &shardLRU
	c.mu.Lock()
	c.accountLocked(id).quota = bytes
	victims := c.enforceTenantLocked(id)
	c.mu.Unlock()
	c.reap(victims)
}

// TenantStats returns the accounting snapshot for tenant id; ok is false if
// no run has ever been tagged with it (and no quota was set).
func TenantStats(id string) (snap metrics.TenantSnapshot, ok bool) {
	c := &shardLRU
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.tenants[id]
	if a == nil {
		return metrics.TenantSnapshot{ID: id}, false
	}
	return c.tenantSnapshotLocked(id, a), true
}

// AllTenantStats returns a snapshot per known tenant, sorted by ID.
func AllTenantStats() []metrics.TenantSnapshot {
	c := &shardLRU
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]metrics.TenantSnapshot, 0, len(c.tenants))
	for id, a := range c.tenants {
		out = append(out, c.tenantSnapshotLocked(id, a))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// tenantSnapshotLocked assembles one tenant's snapshot, deriving the pinned
// gauge from the LRU walk under the same lock as the account gauges.
func (c *shardCache) tenantSnapshotLocked(id string, a *tenantAccount) metrics.TenantSnapshot {
	snap := metrics.TenantSnapshot{
		ID:           id,
		QuotaBytes:   a.quota,
		Bytes:        a.bytes,
		Shards:       a.shards,
		Hits:         a.hits,
		Misses:       a.misses,
		Evictions:    a.evictions,
		EvictedBytes: a.evictedBytes,
		SpillWrites:  a.spillWrites,
		SpillReads:   a.spillReads,
		SpillBytes:   a.spillBytes,
	}
	for s := c.head; s != nil; s = s.lruNext {
		if s.pins > 0 && s.claimedByLocked(id) {
			snap.PinnedBytes += s.bytes
		}
	}
	return snap
}

// DropTenant releases every accounting claim tenant id holds and deletes
// its account: shards it shared with other tenants stay resident (and stay
// charged to them), while shards only this tenant kept warm are retired
// immediately if cold — the "tenant disconnected" hook for long-running
// servers. Shards that are both solely-claimed and pinned survive as
// ordinary unclaimed LRU entries until the budget or a Drop reaches them.
func DropTenant(id string) {
	c := &shardLRU
	c.mu.Lock()
	if c.tenants[id] == nil {
		c.mu.Unlock()
		return
	}
	var dead []*Shard
	for s := c.tail; s != nil; {
		prev := s.lruPrev
		if s.claimedByLocked(id) {
			c.removeClaimLocked(s, id)
			if len(s.claims) == 0 && s.pins == 0 {
				c.retireLocked(s)
				s.owner.unmapLocked(s)
				dead = append(dead, s)
			}
		}
		s = prev
	}
	delete(c.tenants, id)
	c.mu.Unlock()
	c.counters.Drops.Add(int64(len(dead)))
	for _, s := range dead {
		s.recycle()
	}
}

// removeClaimLocked removes one tenant's claim from s and uncharges its
// account. Caller holds c.mu.
func (c *shardCache) removeClaimLocked(s *Shard, id string) {
	for i, t := range s.claims {
		if t != id {
			continue
		}
		s.claims = append(s.claims[:i], s.claims[i+1:]...)
		if a := c.tenants[id]; a != nil {
			a.bytes -= s.bytes
			a.shards--
		}
		return
	}
}
