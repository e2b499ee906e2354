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

// Stats reports everything one contraction run decided and measured.
type Stats struct {
	// Decision is the probabilistic model's output (densities, expected
	// tile nonzeros, accumulator kind, tile sizes).
	Decision model.Decision
	// TileL, TileR are the tile sizes actually used.
	TileL, TileR uint64
	// NL, NR are the tile-grid dimensions; Tasks the executed tile pairs.
	NL, NR, Tasks int
	// BlockL, BlockR are the LLC super-block sides (in non-empty tiles) of
	// the contract schedule; Blocks is the block-task count workers claimed.
	BlockL, BlockR, Blocks int
	// Threads is the worker count used.
	Threads int
	// OutputNNZ is the number of nonzeros in the output.
	OutputNNZ int

	// ShardReusedL/ShardReusedR report that the operand's tile shard was
	// served from a *Sharded cache instead of being rebuilt; ShardReused is
	// the full hit (both sides), in which case Build == 0.
	ShardReusedL, ShardReusedR bool
	ShardReused                bool

	// Phase timings. Total = Linearize + Build + Contract + Concat +
	// Delinearize; linearization and delinearization are included in the
	// measured time exactly as in the paper.
	Linearize   time.Duration
	Build       time.Duration
	Contract    time.Duration
	Concat      time.Duration
	Delinearize time.Duration
	Total       time.Duration

	// Counters holds data-access statistics when metrics were requested.
	Counters metrics.Snapshot
}

// String renders the stats on two lines for logs.
func (s *Stats) String() string {
	reuse := ""
	switch {
	case s.ShardReused:
		reuse = " shards=reused"
	case s.ShardReusedL:
		reuse = " shards=reusedL"
	case s.ShardReusedR:
		reuse = " shards=reusedR"
	}
	return fmt.Sprintf(
		"fastcc: accumulator=%s tile=%dx%d grid=%dx%d tasks=%d block=%dx%d threads=%d out_nnz=%d%s\n"+
			"fastcc: total=%v (linearize=%v build=%v contract=%v concat=%v delinearize=%v)",
		s.Decision.Kind, s.TileL, s.TileR, s.NL, s.NR, s.Tasks, s.BlockL, s.BlockR, s.Threads, s.OutputNNZ, reuse,
		s.Total, s.Linearize, s.Build, s.Contract, s.Concat, s.Delinearize)
}

// InputRep selects the input-tile representation: the paper's hash tables
// (RepHash, default) or radix-sorted grouped arrays with merge
// co-iteration (RepSorted, an engineering ablation).
type InputRep = core.InputRep

// Input representations.
const (
	RepHash   = core.RepHash
	RepSorted = core.RepSorted
)

// options is the resolved option set.
type options struct {
	threads      int
	tileL, tileR uint64
	accum        model.AccumKind
	platform     model.Platform
	counters     *metrics.Counters
	rep          core.InputRep
	ctx          context.Context
	tenant       string
	tenantSet    bool
}

// resolveOptions applies the options in order and validates the combination
// eagerly, so a bad call fails with ErrBadOption before any work runs.
func resolveOptions(opts []Option) (options, error) {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	if err := o.validate(); err != nil {
		return options{}, err
	}
	return o, nil
}

// validate reports invalid or conflicting option combinations. Checks that
// depend on operand data (zero extents, model fallbacks) stay in the engine;
// everything knowable from the options alone is rejected here.
func (o *options) validate() error {
	if o.threads < 0 {
		return fmt.Errorf("%w: WithThreads(%d) is negative (0 means GOMAXPROCS)", ErrBadOption, o.threads)
	}
	if o.tileL > 1<<31 || o.tileR > 1<<31 {
		return fmt.Errorf("%w: WithTileSize(%d, %d) exceeds the 2^31 tile-side bound", ErrBadOption, o.tileL, o.tileR)
	}
	switch o.accum {
	case model.AccumAuto, model.AccumDense, model.AccumSparse:
	default:
		return fmt.Errorf("%w: WithAccumulator(%d) is not a known accumulator kind", ErrBadOption, int(o.accum))
	}
	switch o.rep {
	case core.RepHash, core.RepSorted:
	default:
		return fmt.Errorf("%w: WithInputRep(%d) is not a known input representation", ErrBadOption, int(o.rep))
	}
	if o.accum == model.AccumDense && o.tileR != 0 && o.tileR&(o.tileR-1) != 0 {
		return fmt.Errorf("%w: WithAccumulator(AccumDense) conflicts with WithTileSize tr=%d (dense accumulation needs a power-of-two right tile side)", ErrBadOption, o.tileR)
	}
	if o.accum == model.AccumDense && o.tileL != 0 && o.tileR != 0 && o.tileL*o.tileR > 1<<31 {
		return fmt.Errorf("%w: WithAccumulator(AccumDense) conflicts with WithTileSize(%d, %d) (dense tile exceeds addressable positions)", ErrBadOption, o.tileL, o.tileR)
	}
	if o.tenantSet {
		if err := core.ValidTenant(o.tenant); err != nil {
			return fmt.Errorf("%w: WithTenant(%q): %v", ErrBadOption, o.tenant, err)
		}
	}
	return nil
}

// Option configures Contract.
type Option func(*options)

// WithThreads sets the worker count (default: GOMAXPROCS).
func WithThreads(n int) Option { return func(o *options) { o.threads = n } }

// WithTileSize overrides the model's tile sizes. With a dense accumulator
// tr must be a power of two. Zero leaves a dimension model-chosen.
func WithTileSize(tl, tr uint64) Option {
	return func(o *options) { o.tileL, o.tileR = tl, tr }
}

// WithAccumulator forces a dense or sparse tile accumulator.
func WithAccumulator(k AccumKind) Option { return func(o *options) { o.accum = k } }

// WithPlatform sets the platform profile used by the tile-size model.
func WithPlatform(p Platform) Option { return func(o *options) { o.platform = p } }

// WithMetrics enables data-access counter collection into Stats.Counters.
func WithMetrics() Option {
	return func(o *options) { o.counters = &metrics.Counters{} }
}

// WithInputRep selects the input-tile representation (default RepHash).
func WithInputRep(rep InputRep) Option { return func(o *options) { o.rep = rep } }

// WithContext attaches a context for cooperative cancellation: the run
// checks it between pipeline stages and at tile-task boundaries and returns
// the context's error wrapped. See also ContractContext.
func WithContext(ctx context.Context) Option { return func(o *options) { o.ctx = ctx } }

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
	return func(o *options) { o.tenant, o.tenantSet = id, true }
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
		return fmt.Errorf("%w: SetTenantQuota(%q): %v", ErrBadOption, id, err)
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
		return fmt.Errorf("%w: DropTenant(%q): %v", ErrBadOption, id, err)
	}
	core.DropTenant(id)
	return nil
}

// Contract contracts l and r per spec and returns the output tensor (in
// COO, sorted order unspecified, duplicates absent) together with run
// statistics. Each call linearizes and shards its operands transiently; to
// amortize that work across repeated contractions, Preshard the operands
// once and use ContractPrepared.
func Contract(l, r *Tensor, spec Spec, opts ...Option) (*Tensor, *Stats, error) {
	o, err := resolveOptions(opts)
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
	if !(r == l && sameModes(spec.CtrLeft, spec.CtrRight)) {
		rsh, err = preshardValidated(r, spec.CtrRight, "")
		if err != nil {
			return nil, nil, err
		}
		defer rsh.Drop()
	}
	return contractSharded(lsh, rsh, &o, time.Since(t0))
}

// sameModes reports whether two contracted-mode lists are identical
// (same modes, same pairing order).
func sameModes(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
