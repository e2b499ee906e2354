// Package metrics provides the instrumentation counters used to validate
// the paper's loop-order analysis (Table 1) empirically: hash-table query
// counts, retrieved data volume, accumulator update counts, and workspace
// sizes. Counters are atomic so parallel kernels can share one Counters
// value; a nil *Counters disables collection at negligible cost.
package metrics

import (
	"fmt"
	"sync/atomic"
)

// Counters aggregates data-access statistics for one contraction run.
type Counters struct {
	// Queries counts hash-table (or CSF fiber) lookups into the INPUT
	// tensors — the "Queries" column of paper Table 1.
	Queries atomic.Int64
	// Volume counts input nonzero elements retrieved, including repeats —
	// the "Data Volume" column of Table 1.
	Volume atomic.Int64
	// Updates counts accumulator upsert operations (multiply-accumulates);
	// identical across loop orders for a given contraction.
	Updates atomic.Int64
	// WorkspaceWords records the maximum dense-equivalent workspace size in
	// 8-byte words — the "Size_Acc" column of Table 1.
	WorkspaceWords atomic.Int64
	// Output counts nonzeros appended to the output COO list.
	Output atomic.Int64
	// ProbeBatches counts batched sealed-table probe calls issued by the
	// tile kernel; ProbeHits/ProbeMisses split the individual keys
	// those batches resolved into present and absent. Queries still counts
	// every key, so Table 1 comparisons are unaffected by batching.
	ProbeBatches, ProbeHits, ProbeMisses atomic.Int64
}

// AddQueries records n input-table queries. Safe on a nil receiver.
func (c *Counters) AddQueries(n int64) {
	if c != nil {
		c.Queries.Add(n)
	}
}

// AddVolume records n input nonzeros retrieved.
func (c *Counters) AddVolume(n int64) {
	if c != nil {
		c.Volume.Add(n)
	}
}

// AddUpdates records n accumulator updates.
func (c *Counters) AddUpdates(n int64) {
	if c != nil {
		c.Updates.Add(n)
	}
}

// MaxWorkspace raises the recorded workspace high-water mark to w words.
func (c *Counters) MaxWorkspace(w int64) {
	if c == nil {
		return
	}
	for {
		cur := c.WorkspaceWords.Load()
		if w <= cur || c.WorkspaceWords.CompareAndSwap(cur, w) {
			return
		}
	}
}

// AddOutput records n output nonzeros.
func (c *Counters) AddOutput(n int64) {
	if c != nil {
		c.Output.Add(n)
	}
}

// AddProbeBatches records batched-probe traffic: batches LookupBatch calls
// that resolved hits present keys and misses absent ones.
func (c *Counters) AddProbeBatches(batches, hits, misses int64) {
	if c == nil {
		return
	}
	c.ProbeBatches.Add(batches)
	c.ProbeHits.Add(hits)
	c.ProbeMisses.Add(misses)
}

// CacheCounters aggregates shard-cache lifecycle statistics: how often the
// engine's Build phase was served from an Operand's shard cache, and what
// the byte-budgeted eviction policy reclaimed. One process-wide instance
// lives in the core engine; the gauges a snapshot adds on top (resident and
// pinned bytes) are derived from the cache's LRU state at snapshot time.
type CacheCounters struct {
	// Hits counts shard fetches served from the cache (including waiting
	// out another goroutine's in-flight build); Misses counts builds.
	Hits, Misses atomic.Int64
	// Evictions counts shards retired by the byte budget; EvictedBytes is
	// their cumulative footprint. Drops (Operand.Close / Sharded.Drop)
	// count separately.
	Evictions, EvictedBytes atomic.Int64
	// Drops counts shards retired by an explicit Close/Drop call.
	Drops atomic.Int64
	// SpillWrites/SpillReads count shard images written to and reloaded from
	// the disk tier; SpillAdopts the subset of reloads served from a previous
	// process's on-disk files (warm restart); SpillFallbacks the spill writes
	// and read-backs that failed with a typed error and degraded to a plain
	// rebuild; SpillBytes the cumulative bytes written to disk.
	SpillWrites, SpillReads, SpillAdopts, SpillFallbacks, SpillBytes atomic.Int64
}

// Snapshot returns a plain-value copy of the lifecycle counters. The
// CachedBytes/PinnedBytes/Shards gauges are left zero here — the cache that
// owns the LRU fills them in.
func (c *CacheCounters) Snapshot() CacheSnapshot {
	if c == nil {
		return CacheSnapshot{}
	}
	return CacheSnapshot{
		Hits:           c.Hits.Load(),
		Misses:         c.Misses.Load(),
		Evictions:      c.Evictions.Load(),
		EvictedBytes:   c.EvictedBytes.Load(),
		Drops:          c.Drops.Load(),
		SpillWrites:    c.SpillWrites.Load(),
		SpillReads:     c.SpillReads.Load(),
		SpillAdopts:    c.SpillAdopts.Load(),
		SpillFallbacks: c.SpillFallbacks.Load(),
		SpillBytes:     c.SpillBytes.Load(),
	}
}

// CacheSnapshot is a point-in-time view of the shard cache: monotonic
// lifecycle counters plus the resident-state gauges.
type CacheSnapshot struct {
	Hits, Misses            int64
	Evictions, EvictedBytes int64
	Drops                   int64
	// Disk-tier lifecycle counters (see CacheCounters).
	SpillWrites, SpillReads, SpillAdopts, SpillFallbacks, SpillBytes int64
	// CachedBytes is the resident footprint of every live cached shard;
	// PinnedBytes the subset currently pinned by in-flight contractions;
	// Shards the resident shard count.
	CachedBytes, PinnedBytes, Shards int64
	// SpillFiles/SpillDiskBytes are the disk-tier residency gauges: spill
	// files currently on disk and their summed size. Zero when no spill
	// directory is configured.
	SpillFiles, SpillDiskBytes int64
}

// String renders the cache snapshot compactly for logs.
func (s CacheSnapshot) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d evicted_bytes=%d drops=%d cached_bytes=%d pinned_bytes=%d shards=%d spill_writes=%d spill_reads=%d spill_adopts=%d spill_fallbacks=%d spill_bytes=%d spill_files=%d spill_disk_bytes=%d",
		s.Hits, s.Misses, s.Evictions, s.EvictedBytes, s.Drops, s.CachedBytes, s.PinnedBytes, s.Shards,
		s.SpillWrites, s.SpillReads, s.SpillAdopts, s.SpillFallbacks, s.SpillBytes, s.SpillFiles, s.SpillDiskBytes)
}

// TenantSnapshot is a point-in-time view of one tenant's shard-cache
// accounting: the quota it is held to, the resident bytes currently charged
// to it (every shard a tenant's contractions built or reused is charged to
// that tenant in full — a shard shared by several tenants appears in each of
// their snapshots), and the lifecycle counters of its runs. The core cache
// that owns the accounts fills these in under its own lock, so one snapshot
// is internally consistent.
type TenantSnapshot struct {
	// ID is the tenant identifier the runs were tagged with.
	ID string
	// QuotaBytes is the per-tenant shard-cache quota (0 = no quota).
	QuotaBytes int64
	// Bytes is the resident footprint of every live shard claimed by this
	// tenant; PinnedBytes the subset currently pinned by in-flight
	// contractions; Shards the claimed shard count.
	Bytes, PinnedBytes, Shards int64
	// Hits and Misses count this tenant's shard fetches served from the
	// cache versus built.
	Hits, Misses int64
	// Evictions counts shards retired specifically to bring this tenant
	// back under its quota; EvictedBytes is their cumulative footprint.
	// Budget-driven global evictions count in CacheSnapshot, not here.
	Evictions, EvictedBytes int64
	// SpillWrites/SpillReads count disk-tier round trips of shards this
	// tenant had claimed when they were evicted; SpillBytes the cumulative
	// bytes those writes put on disk. A shard claimed by several tenants
	// charges each of them, mirroring the resident-byte accounting.
	SpillWrites, SpillReads, SpillBytes int64
}

// String renders the tenant snapshot compactly for logs.
func (s TenantSnapshot) String() string {
	return fmt.Sprintf("tenant=%s quota=%d bytes=%d pinned=%d shards=%d hits=%d misses=%d evictions=%d evicted_bytes=%d spill_writes=%d spill_reads=%d spill_bytes=%d",
		s.ID, s.QuotaBytes, s.Bytes, s.PinnedBytes, s.Shards, s.Hits, s.Misses, s.Evictions, s.EvictedBytes,
		s.SpillWrites, s.SpillReads, s.SpillBytes)
}

// Snapshot is a plain-value copy of the counters.
type Snapshot struct {
	Queries        int64
	Volume         int64
	Updates        int64
	WorkspaceWords int64
	Output         int64
	// ProbeBatches/ProbeHits/ProbeMisses are the batched-probe statistics
	// of the tile kernel.
	ProbeBatches, ProbeHits, ProbeMisses int64
}

// Snapshot returns the current counter values; zero-valued on nil receiver.
func (c *Counters) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return Snapshot{
		Queries:        c.Queries.Load(),
		Volume:         c.Volume.Load(),
		Updates:        c.Updates.Load(),
		WorkspaceWords: c.WorkspaceWords.Load(),
		Output:         c.Output.Load(),
		ProbeBatches:   c.ProbeBatches.Load(),
		ProbeHits:      c.ProbeHits.Load(),
		ProbeMisses:    c.ProbeMisses.Load(),
	}
}

// Add returns the field-wise sum of two snapshots, except WorkspaceWords,
// a high-water mark, which takes the larger of the two.
func (s Snapshot) Add(o Snapshot) Snapshot {
	s.Queries += o.Queries
	s.Volume += o.Volume
	s.Updates += o.Updates
	s.WorkspaceWords = max(s.WorkspaceWords, o.WorkspaceWords)
	s.Output += o.Output
	s.ProbeBatches += o.ProbeBatches
	s.ProbeHits += o.ProbeHits
	s.ProbeMisses += o.ProbeMisses
	return s
}

// String renders the snapshot compactly for logs and experiment tables.
func (s Snapshot) String() string {
	return fmt.Sprintf("queries=%d volume=%d updates=%d ws_words=%d out=%d probe_batches=%d probe_hits=%d probe_misses=%d",
		s.Queries, s.Volume, s.Updates, s.WorkspaceWords, s.Output, s.ProbeBatches, s.ProbeHits, s.ProbeMisses)
}
