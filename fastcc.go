// Package fastcc is a pure-Go implementation of FaSTCC — Fast Sparse
// Tensor Contractions on CPUs (Raje et al., SC '25).
//
// FaSTCC contracts two sparse tensors in COO format:
//
//	O[ext_L, ext_R] = Σ_c  L[ext_L, c] · R[c, ext_R]
//
// using a 2D-tiled contraction-index-outer scheme: the linearized output
// index space is partitioned into tiles, the inputs are sharded into
// per-tile open-addressing hash tables keyed by the contraction index, and
// tile–tile contractions run as dynamically scheduled parallel tasks. A
// probabilistic model picks a dense or sparse accumulator per contraction
// and sizes tiles to the last-level cache.
//
// Quick start:
//
//	out, stats, err := fastcc.Contract(l, r, fastcc.Spec{
//		CtrLeft:  []int{2},        // contract mode 2 of l ...
//		CtrRight: []int{0},        // ... against mode 0 of r
//	})
//
// The output tensor's modes are the left operand's external (uncontracted)
// modes followed by the right operand's, in their original order.
package fastcc

import (
	"context"
	"fmt"
	"slices"
	"time"

	"fastcc/internal/coo"
	"fastcc/internal/core"
	"fastcc/internal/metrics"
	"fastcc/internal/model"
)

// Tensor is an N-mode sparse tensor in COO format (see coo.Tensor for the
// invariants). Construct with NewTensor and Append, or parse with ReadTNS.
type Tensor = coo.Tensor

// Spec names the contracted modes: mode CtrLeft[k] of the left operand is
// summed against mode CtrRight[k] of the right operand.
type Spec = coo.Spec

// Platform describes the machine parameters (cores, LLC bytes, word size)
// the tile-size model uses. See Desktop8, Server64 and AutoPlatform.
type Platform = model.Platform

// AccumKind selects the output tile accumulator (dense or sparse).
type AccumKind = model.AccumKind

// Accumulator kinds.
const (
	AccumAuto   = model.AccumAuto
	AccumDense  = model.AccumDense
	AccumSparse = model.AccumSparse
)

// Platform profiles matching the paper's evaluation machines, plus the
// host-derived default.
var (
	Desktop8 = model.Desktop8
	Server64 = model.Server64
)

// AutoPlatform returns a platform profile for the current machine.
func AutoPlatform() Platform { return model.Auto() }

// NewTensor returns an empty tensor with the given mode extents.
func NewTensor(dims []uint64, capHint int) *Tensor { return coo.New(dims, capHint) }

// Stats reports everything one contraction run decided and measured: the
// model's decision, tile geometry, reuse flags, the six phase timings and,
// with WithMetrics, the data-access counters.
type Stats = core.Stats

// InputRep selects the input-tile representation: the paper's hash tables
// (RepHash, default) or radix-sorted grouped arrays with merge
// co-iteration (RepSorted, an engineering ablation).
type InputRep = core.InputRep

// Input representations.
const (
	RepHash   = core.RepHash
	RepSorted = core.RepSorted
)

// Option configures one run. Options apply in order, so the last one
// setting a field wins.
type Option func(*core.Config)

// config applies opts and checks the result eagerly, so a bad call fails
// with ErrBadOption before any work runs. The engine checks it again, and
// also checks an overridden tile against the accumulator the model picks.
func config(opts []Option) (core.Config, error) {
	var c core.Config
	for _, o := range opts {
		o(&c)
	}
	return c, c.Validate()
}

// WithThreads sets the worker count (default: GOMAXPROCS).
func WithThreads(n int) Option { return func(c *core.Config) { c.Threads = n } }

// WithTileSize overrides the model's tile sizes. With a dense accumulator
// tr must be a power of two. Zero leaves a dimension model-chosen.
func WithTileSize(tl, tr uint64) Option {
	return func(c *core.Config) { c.TileL, c.TileR = tl, tr }
}

// WithAccumulator forces a dense or sparse tile accumulator.
func WithAccumulator(k AccumKind) Option { return func(c *core.Config) { c.Accum = k } }

// WithPlatform sets the platform profile used by the tile-size model. The
// zero Platform means AutoPlatform.
func WithPlatform(p Platform) Option { return func(c *core.Config) { c.Platform = p } }

// WithMetrics enables data-access counter collection into Stats.Counters.
func WithMetrics() Option {
	return func(c *core.Config) { c.Counters = &metrics.Counters{} }
}

// WithInputRep selects the input-tile representation (default RepHash).
func WithInputRep(rep InputRep) Option { return func(c *core.Config) { c.Rep = rep } }

// WithContext attaches a context for cooperative cancellation. It is the
// one cancellation path through the package: every entry point (Contract,
// SelfContract, ContractPrepared, Einsum, EinsumN) accepts it, checks the
// context between pipeline stages and at tile-task boundaries, and returns
// ctx.Err() wrapped (errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) hold).
func WithContext(ctx context.Context) Option { return func(c *core.Config) { c.Context = ctx } }

// SetShardBudget bounds the process-wide cache of built tile shards (the
// tables Preshard/ContractPrepared reuse across runs) to the given byte
// budget and enforces it at once against cold shards. When resident shards
// exceed the budget, the least recently used unpinned shards are evicted
// and their storage recycled; shards pinned by in-flight contractions are
// never touched, and each contraction settles the budget again when its
// pins drop. bytes > 0 sets an explicit budget, bytes < 0 disables eviction
// entirely, and 0 restores the default, which the cache also starts with:
// AutoPlatform().L3Bytes times 64, derived from the host rather than from
// any run's WithPlatform. The budget is process state: the process owner
// sets it, and no contraction changes it.
func SetShardBudget(bytes int64) { core.SetShardBudget(bytes) }

// ConfigureSpill sets the shard cache's disk tier for the process. With a
// non-empty dir, a cold shard that the byte budget (SetShardBudget) or a
// tenant quota evicts is serialized into a compact checksummed file under
// dir instead of being thrown away, and the next contraction needing that
// shard reads the file back — skipping the full re-linearize + re-hash
// rebuild. Every way a read-back can go wrong (missing file, truncation,
// checksum mismatch, stale generation stamp) degrades to a plain rebuild
// with a typed fault counter, never a wrong answer. An empty dir disables
// the tier.
//
// budget bounds the directory's bytes (<= 0 unbounded): the directory makes
// room oldest-first, and a write that still cannot fit falls back to plain
// eviction. Files are deleted as their shards reload or drop, unless
// persist selects keep-mode: reloaded or dropped shards then leave their
// files on disk as adoptable orphans, so a restarted process pointed at the
// same directory warms its cache from them instead of rebuilding
// (fastcc-serve's restart path). Opening a directory scavenges anonymous
// and corrupt leftovers.
func ConfigureSpill(dir string, budget int64, persist bool) error {
	return core.ConfigureSpill(dir, budget, persist)
}

// SpillFaultStats counts spill read-back and write failures by typed cause;
// every counted fault corresponds to one graceful fallback to rebuild.
type SpillFaultStats = core.SpillFaultSnapshot

// SpillFaults reports the process-wide spill fault counters.
func SpillFaults() SpillFaultStats { return core.SpillFaults() }

// WithTenant charges every shard this run builds or reuses to the named
// tenant's cache account: the shard bytes count against the tenant's quota
// (SetTenantQuota), quota overruns are settled by evicting the tenant's own
// cold shards when the run finishes, and the global eviction policy prefers
// over-quota tenants' shards — the fairness mechanism multi-tenant services
// (fastcc-serve) need so one tenant cannot monopolize the shard cache.
//
// Tenant IDs are 1–128 bytes of printable ASCII without spaces; anything
// else is rejected eagerly with ErrBadOption.
func WithTenant(id string) Option {
	return func(c *core.Config) { c.Tenant, c.TenantSet = id, true }
}

// CacheStats is a point-in-time view of the shard cache: hit/miss/eviction
// counters plus resident and pinned byte gauges. See ShardCacheStats.
type CacheStats = metrics.CacheSnapshot

// ShardCacheStats reports the process-wide shard cache's lifecycle counters
// and resident-state gauges — the observability hook for tuning
// SetShardBudget and ConfigureSpill.
func ShardCacheStats() CacheStats { return core.CacheStats() }

// TenantStats is a point-in-time view of one tenant's shard-cache
// accounting: quota, resident charge, pinned subset and per-tenant
// hit/miss/eviction counters. See TenantCacheStats.
type TenantStats = metrics.TenantSnapshot

// SetTenantQuota sets the shard-cache quota for tenant id in bytes and
// enforces it immediately against the tenant's cold shards; bytes <= 0
// removes the quota. The quota lives inside the global SetShardBudget
// budget — it bounds one tenant's slice, it does not grow the whole.
// Invalid tenant IDs are rejected with ErrBadOption.
func SetTenantQuota(id string, bytes int64) error {
	if err := core.ValidTenant(id); err != nil {
		return err
	}
	core.SetTenantQuota(id, bytes)
	return nil
}

// TenantCacheStats reports tenant id's shard-cache accounting; ok is false
// when no run was ever tagged with the ID and no quota was set.
func TenantCacheStats(id string) (stats TenantStats, ok bool) {
	return core.TenantStats(id)
}

// AllTenantCacheStats reports every known tenant's accounting, sorted by ID.
func AllTenantCacheStats() []TenantStats { return core.AllTenantStats() }

// DropTenant releases every accounting claim tenant id holds and deletes
// its account: shards shared with other tenants stay resident, shards only
// this tenant kept warm are evicted. Call when a tenant disconnects for
// good; its next tagged run simply re-opens the account. Invalid tenant IDs
// are rejected with ErrBadOption.
func DropTenant(id string) error {
	if err := core.ValidTenant(id); err != nil {
		return err
	}
	core.DropTenant(id)
	return nil
}

// Contract contracts l and r per spec and returns the output tensor (in
// COO, duplicates absent) together with run statistics. Each call
// linearizes and shards its operands transiently; to amortize that work
// across repeated contractions, Preshard the operands once and use
// ContractPrepared.
//
// The output's element order is not sorted. In a run with the dense
// accumulator (Stats.Decision.Kind) it is fixed by the inputs and the
// plan, the same at every thread count, and the elements that share their
// left-operand coordinates come in ascending row-major order of their
// right-operand coordinates. A sparse run's order is not defined.
func Contract(l, r *Tensor, spec Spec, opts ...Option) (*Tensor, *Stats, error) {
	cfg, err := config(opts)
	if err != nil {
		return nil, nil, err
	}
	if err := spec.Validate(l, r); err != nil {
		return nil, nil, err
	}
	if err := l.Validate(); err != nil {
		return nil, nil, fmt.Errorf("left operand: %w", err)
	}
	if r != l {
		if err := r.Validate(); err != nil {
			return nil, nil, fmt.Errorf("right operand: %w", err)
		}
	}

	// Pre-processing: linearize mode groups (timed, per the paper). A
	// self-contraction (same tensor, same contracted modes) shares one
	// prepared operand so it is linearized and sharded exactly once.
	t0 := time.Now()
	lsh, err := preshardValidated(l, spec.CtrLeft, "")
	if err != nil {
		return nil, nil, err
	}
	// The operands are transient — nothing will ever reuse their shards, so
	// drop them on the way out rather than letting dead tables occupy the
	// shard-cache budget until eviction notices.
	defer lsh.Drop()
	rsh := lsh
	if !(r == l && slices.Equal(spec.CtrLeft, spec.CtrRight)) {
		rsh, err = preshardValidated(r, spec.CtrRight, "")
		if err != nil {
			return nil, nil, err
		}
		defer rsh.Drop()
	}
	return contractSharded(lsh, rsh, cfg, time.Since(t0))
}

// SelfContract contracts a tensor with itself over the given modes — the
// FROSTT evaluation pattern (e.g. Chicago 01 contracts modes 0 and 1 of the
// Chicago tensor against the same modes of a second copy).
func SelfContract(t *Tensor, modes []int, opts ...Option) (*Tensor, *Stats, error) {
	spec := Spec{
		CtrLeft:  append([]int(nil), modes...),
		CtrRight: append([]int(nil), modes...),
	}
	return Contract(t, t, spec, opts...)
}
