package core

import (
	"math/rand"
	"testing"
)

// The tenant-accounting tests pin the charging protocol of tenant.go:
// claims charge a shard's full bytes to each claiming tenant, quota
// enforcement retires only that tenant's cold shards, and the global
// eviction policy squeezes over-quota tenants before anyone else. The
// cache is process-global, so tests use fresh tenant IDs and delete their
// accounts on the way out.

func tenantCleanup(t *testing.T, ids ...string) {
	t.Helper()
	t.Cleanup(func() {
		for _, id := range ids {
			DropTenant(id)
		}
		SetShardBudget(0)
	})
}

func TestTenantClaimChargesOncePerShard(t *testing.T) {
	tenantCleanup(t, "claim-a")
	op := lifecycleOperand(101)
	defer op.Close()
	key := ShardKey{Tile: 32}

	s, built := op.Shard(key, 2)
	claimShard(s, "claim-a", built)
	snap, ok := TenantStats("claim-a")
	if !ok {
		t.Fatal("no account after a claim")
	}
	if snap.Bytes != s.bytes || snap.Shards != 1 || snap.Misses != 1 {
		t.Fatalf("after build: %v, want bytes=%d shards=1 misses=1", snap, s.bytes)
	}
	if snap.PinnedBytes != s.bytes {
		t.Fatalf("PinnedBytes=%d with the builder pin held, want %d", snap.PinnedBytes, s.bytes)
	}

	// A second fetch of the same shard is a hit and must not double-charge.
	s2, built2 := op.Shard(key, 2)
	claimShard(s2, "claim-a", built2)
	snap, _ = TenantStats("claim-a")
	if snap.Bytes != s.bytes || snap.Shards != 1 || snap.Hits != 1 {
		t.Fatalf("after hit: %v, want unchanged bytes=%d shards=1 hits=1", snap, s.bytes)
	}
	s2.Unpin()
	s.Unpin()

	// Dropping the operand retires the shard and must uncharge the claim.
	op.Close()
	snap, _ = TenantStats("claim-a")
	if snap.Bytes != 0 || snap.Shards != 0 {
		t.Fatalf("after Close: %v, want zero charge", snap)
	}
}

func TestTenantQuotaEvictsOwnColdShards(t *testing.T) {
	tenantCleanup(t, "quota-a")
	op := lifecycleOperand(103)
	defer op.Close()
	k1 := ShardKey{Tile: 32}
	k2 := ShardKey{Tile: 64}

	s1, b1 := op.Shard(k1, 2)
	claimShard(s1, "quota-a", b1)
	s2, b2 := op.Shard(k2, 2)
	claimShard(s2, "quota-a", b2)

	// Both pinned: a 1-byte quota cannot touch them.
	SetTenantQuota("quota-a", 1)
	if !op.Cached(k1) || !op.Cached(k2) {
		t.Fatal("quota enforcement evicted a pinned shard")
	}
	snap, _ := TenantStats("quota-a")
	if snap.Bytes != s1.bytes+s2.bytes {
		t.Fatalf("pinned charge %d, want %d", snap.Bytes, s1.bytes+s2.bytes)
	}

	// Pins dropped: the run-exit enforcement path must squeeze the account
	// back under quota (here: evict everything).
	s1.Unpin()
	s2.Unpin()
	shardLRU.settle("quota-a")
	snap, _ = TenantStats("quota-a")
	if snap.Bytes > 1 || snap.Shards != 0 {
		t.Fatalf("after enforcement: %v, want empty account", snap)
	}
	if snap.Evictions != 2 || snap.EvictedBytes != s1.bytes+s2.bytes {
		t.Fatalf("eviction counters %v, want 2 evictions covering both shards", snap)
	}
	if op.Cached(k1) || op.Cached(k2) {
		t.Fatal("over-quota cold shards survived enforcement")
	}
}

func TestGlobalEvictionPrefersOverQuotaTenants(t *testing.T) {
	tenantCleanup(t, "glut", "modest")
	opA := lifecycleOperand(107)
	opB := lifecycleOperand(109)
	defer opA.Close()
	defer opB.Close()
	key := ShardKey{Tile: 32}

	// Baseline: run with an unlimited budget so the builds themselves don't
	// evict anything.
	SetShardBudget(-1)

	// modest's shard is OLDER (colder) than glut's: plain LRU would evict
	// modest first. The quota preference must reverse that.
	sb, bb := opB.Shard(key, 2)
	claimShard(sb, "modest", bb)
	sb.Unpin()
	sa, ba := opA.Shard(key, 2)
	claimShard(sa, "glut", ba)
	sa.Unpin()
	SetTenantQuota("glut", 1) // glut is now hopelessly over quota

	// A budget that can hold modest's shard but not both: the victim must
	// be glut's, despite being the more recently used.
	SetShardBudget(sb.bytes + sa.bytes - 1)
	if opA.Cached(key) {
		t.Fatal("over-quota tenant's shard survived the budget squeeze")
	}
	if !opB.Cached(key) {
		t.Fatal("under-quota tenant's warm shard was evicted while an over-quota tenant's remained preferable")
	}
}

func TestDropTenantReleasesClaimsButKeepsSharedShards(t *testing.T) {
	tenantCleanup(t, "shared-a", "shared-b")
	op := lifecycleOperand(113)
	defer op.Close()
	key := ShardKey{Tile: 32}

	s, built := op.Shard(key, 2)
	claimShard(s, "shared-a", built)
	claimShard(s, "shared-b", false)
	s.Unpin()

	// Dropping one claimant leaves the shard resident for the other.
	DropTenant("shared-a")
	if _, ok := TenantStats("shared-a"); ok {
		t.Fatal("account survived DropTenant")
	}
	if !op.Cached(key) {
		t.Fatal("shard shared with a live tenant was retired by DropTenant")
	}
	snapB, _ := TenantStats("shared-b")
	if snapB.Bytes != s.bytes {
		t.Fatalf("surviving claimant's charge %d, want %d", snapB.Bytes, s.bytes)
	}

	// Dropping the last claimant retires the now-unwanted cold shard.
	DropTenant("shared-b")
	if op.Cached(key) {
		t.Fatal("solely-claimed cold shard survived its last DropTenant")
	}
}

func TestEngineTenantTaggingAndRunExitEnforcement(t *testing.T) {
	tenantCleanup(t, "engine-t")
	rng := rand.New(rand.NewSource(127))
	l := randomMatrix(rng, 150, 40, 1200)
	r := randomMatrix(rng, 140, 40, 1200)
	lo, ro := NewOperand(l), NewOperand(r)
	defer lo.Close()
	defer ro.Close()

	SetTenantQuota("engine-t", 1)
	out, _, err := ContractOperands(lo, ro, Config{Threads: 2, Tenant: "engine-t"})
	if err != nil {
		t.Fatalf("ContractOperands: %v", err)
	}
	RecycleOutput(out)

	// The run tagged both builds to the tenant, and its exit enforcement
	// must have settled the 1-byte quota once the run pins dropped.
	snap, ok := TenantStats("engine-t")
	if !ok {
		t.Fatal("tenanted run left no account")
	}
	if snap.Misses < 2 {
		t.Fatalf("misses=%d, want both operand builds charged", snap.Misses)
	}
	if snap.Bytes > 1 {
		t.Fatalf("resident charge %d exceeds the 1-byte quota after run exit", snap.Bytes)
	}
	if snap.Evictions == 0 {
		t.Fatal("quota overrun settled without any tenant eviction")
	}
}
