package fastcc

import (
	"context"
	"time"

	"fastcc/internal/coo"
	"fastcc/internal/core"
)

// Sharded is a contraction operand prepared once and reusable across many
// contractions: the tensor is validated and linearized at Preshard time,
// and the per-tile input tables the engine builds from it (the paper's
// Build phase, Algorithm 5) are cached inside the Sharded, keyed by the
// shard-compatibility contract (tile side × input representation).
//
// Repeated contractions that arrive at the same tile grid — a self-
// contraction, one tensor contracted against many partners of similar
// shape, or any run with an explicit WithTileSize — skip Linearize and
// Build entirely and report Stats.Build == 0 with the ShardReused flags
// set.
//
// A Sharded is safe for concurrent use by multiple contractions. The
// underlying tensor must not be mutated after Preshard: the cached tables
// index into its value array.
type Sharded struct {
	t     *Tensor
	modes []int // contracted modes, frozen at Preshard time
	ext   []int // external modes, in original order
	op    *core.Operand
}

// Preshard validates t and linearizes it for contraction over the given
// modes, returning a reusable operand. The heavy per-tile build runs lazily
// on the first contraction and is cached per tile grid; pinning the grid up
// front with WithTileSize builds those shards eagerly (with WithThreads
// workers), so the first contraction is already a shard hit.
//
// Options are validated eagerly (ErrBadOption); WithTileSize and
// WithInputRep select the eager build, WithThreads its parallelism, and
// other options are ignored here — pass them to the contraction instead.
func Preshard(t *Tensor, modes []int, opts ...Option) (*Sharded, error) {
	return PreshardKeyed(t, modes, "", opts...)
}

// Drop releases every tile shard cached inside the Sharded: unpinned shards
// are reclaimed (their table storage recycled) before Drop returns, shards
// still read by an in-flight contraction at their reader's exit. The Sharded
// remains usable — a later contraction rebuilds what it needs — so Drop is
// the explicit "I'm done reusing this for now" signal that keeps long-lived
// programs from holding every operand's tables at the shard-cache budget's
// mercy. Safe to call concurrently with contractions and repeatedly.
func (s *Sharded) Drop() { s.op.Close() }

// Close is Drop under the standard io.Closer spelling, so a *Sharded slots
// into registries and defer chains that manage Closers uniformly. It never
// fails (the error is always nil) and, like Drop, leaves the Sharded usable:
// a later contraction rebuilds what it needs.
func (s *Sharded) Close() error {
	s.Drop()
	return nil
}

// SizeBytes reports the resident footprint of the tile shards currently
// cached inside this Sharded — the bytes the shard-cache budget (and, for
// tenanted runs, the owning tenants' quotas) are charged for it right now.
// Zero means nothing is resident: never built, evicted, or dropped. The
// figure excludes the wrapped tensor itself and any build still in flight.
func (s *Sharded) SizeBytes() int64 {
	b, _ := s.op.Resident()
	return b
}

// Warm reports whether at least one built tile shard is resident, i.e.
// whether the next compatible contraction can skip the Build phase
// entirely (Stats.Build == 0 on a full hit). Like SizeBytes it is a
// non-blocking accounting view — an in-flight build counts as cold.
func (s *Sharded) Warm() bool {
	_, n := s.op.Resident()
	return n > 0
}

// PreshardKeyed is Preshard for content-addressed operands: key names the
// operand's spill files (the server uses the hex content hash of the
// canonical tensor encoding plus a contracted-modes tag), so a persistent
// spill directory (ConfigureSpill with persist=true) lets a restarted
// process that derives the same key adopt the previous process's on-disk
// shard images instead of rebuilding them. Everything else — validation,
// eager builds, reuse semantics — matches Preshard exactly; an empty key
// degrades to the anonymous Preshard behaviour.
func PreshardKeyed(t *Tensor, modes []int, key string, opts ...Option) (*Sharded, error) {
	o, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	// Reuse the spec structural checks for one operand's mode list.
	probe := Spec{CtrLeft: modes, CtrRight: modes}
	if err := probe.ValidateModes(t.Order(), t.Order()); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	s, err := preshardValidated(t, modes, key)
	if err != nil {
		return nil, err
	}
	// Eager build for pinned tile grids: a later contraction using the same
	// override lands exactly on these keys. Warm builds without keeping a
	// pin — the prepared operand holds no claim against eviction; a budget
	// squeeze simply means the first contraction rebuilds.
	for _, tile := range []uint64{o.tileL, o.tileR} {
		if tile != 0 {
			s.op.Warm(core.ShardKey{Tile: tile, Rep: o.rep}, o.threads)
		}
	}
	return s, nil
}

// preshardValidated wraps an already-validated tensor: linearize (the
// paper's pre-processing step) and set up the shard cache. A non-empty key
// makes the operand content-addressed for the spill tier.
func preshardValidated(t *Tensor, modes []int, key string) (*Sharded, error) {
	ext := coo.ExternalModes(t.Order(), modes)
	m, err := t.Matrixize(ext, modes)
	if err != nil {
		return nil, err
	}
	var op *core.Operand
	if key != "" {
		op = core.NewKeyedOperand(m, key)
	} else {
		op = core.NewOperand(m)
	}
	return &Sharded{
		t:     t,
		modes: append([]int(nil), modes...),
		ext:   ext,
		op:    op,
	}, nil
}

// Tensor returns the wrapped tensor (not a copy; do not mutate).
func (s *Sharded) Tensor() *Tensor { return s.t }

// Modes returns a copy of the contracted modes frozen at Preshard time.
func (s *Sharded) Modes() []int { return append([]int(nil), s.modes...) }

// ContractPrepared contracts two prepared operands: mode l.Modes()[k] of
// the left tensor is summed against mode r.Modes()[k] of the right (the
// Spec was frozen by the Preshard calls). Either side — or both, including
// the same *Sharded twice for a self-contraction — reuses its cached tile
// shard when the run's tile grid matches, reporting Stats.Build == 0 and
// the ShardReused flags on a full hit.
//
// Options behave exactly as on Contract — WithContext cancels cooperatively
// between pipeline stages and at tile-task boundaries, WithTenant charges
// the run's shards to a tenant account — so prepared and one-shot paths are
// interchangeable call-site by call-site.
func ContractPrepared(l, r *Sharded, opts ...Option) (*Tensor, *Stats, error) {
	o, err := resolveOptions(opts)
	if err != nil {
		return nil, nil, err
	}
	spec := Spec{CtrLeft: l.modes, CtrRight: r.modes}
	if err := spec.Validate(l.t, r.t); err != nil {
		return nil, nil, err
	}
	return contractSharded(l, r, &o, 0)
}

// ContractContext is a convenience wrapper for Contract(l, r, spec,
// append(opts, WithContext(ctx))...) — nothing more. WithContext is the one
// cancellation path through the package: every entry point (Contract,
// SelfContract, ContractPrepared, Einsum, EinsumN) accepts it uniformly,
// checks the context between pipeline stages and at tile-task boundaries,
// and returns ctx.Err() wrapped (errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) hold). The ctx argument is
// appended last, so under the package's last-option-wins convention it
// takes precedence over any WithContext already in opts.
func ContractContext(ctx context.Context, l, r *Tensor, spec Spec, opts ...Option) (*Tensor, *Stats, error) {
	withCtx := make([]Option, 0, len(opts)+1)
	withCtx = append(withCtx, opts...)
	withCtx = append(withCtx, WithContext(ctx))
	return Contract(l, r, spec, withCtx...)
}

// contractSharded runs the shared build/execute pipeline over two prepared
// operands and de-linearizes the output. linearize is the time the caller
// spent matrixizing (zero when the operands were prepared earlier — that is
// the amortization).
func contractSharded(l, r *Sharded, o *options, linearize time.Duration) (*Tensor, *Stats, error) {
	st := &Stats{Linearize: linearize}
	tStart := time.Now()

	out, cst, err := core.ContractOperands(l.op, r.op, core.Config{
		Threads:  o.threads,
		TileL:    o.tileL,
		TileR:    o.tileR,
		Accum:    o.accum,
		Platform: o.platform,
		Counters: o.counters,
		Rep:      o.rep,
		Context:  o.ctx,
		Tenant:   o.tenant,
	})
	if err != nil {
		return nil, nil, err
	}
	st.Decision = cst.Decision
	st.TileL, st.TileR = cst.TileL, cst.TileR
	st.NL, st.NR, st.Tasks = cst.NL, cst.NR, cst.Tasks
	st.BlockL, st.BlockR, st.Blocks = cst.BlockL, cst.BlockR, cst.Blocks
	st.Threads = cst.Threads
	st.OutputNNZ = cst.OutputNNZ
	st.Build = cst.BuildTime
	st.Contract = cst.ContractTime
	st.Concat = cst.ConcatTime
	st.ShardReusedL, st.ShardReusedR = cst.ShardReusedL, cst.ShardReusedR
	st.ShardReused = cst.ShardReusedL && cst.ShardReusedR

	// Post-processing: de-linearize the output chunks straight into the
	// result tensor (timed).
	t0 := time.Now()
	lDims := make([]uint64, len(l.ext))
	for i, m := range l.ext {
		lDims[i] = l.t.Dims[m]
	}
	rDims := make([]uint64, len(r.ext))
	for i, m := range r.ext {
		rDims[i] = r.t.Dims[m]
	}
	result, ferr := core.DelinearizeOutput(out, lDims, rDims, st.Threads)
	// The result holds copies; the triple chunks go straight back to the
	// engine's chunk cache.
	core.RecycleOutput(out)
	if ferr != nil {
		return nil, nil, ferr
	}
	st.Delinearize = time.Since(t0)
	st.Total = linearize + time.Since(tStart)
	st.Counters = o.counters.Snapshot()
	return result, st, nil
}
