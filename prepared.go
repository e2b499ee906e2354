package fastcc

import (
	"slices"
	"time"

	"fastcc/internal/coo"
	"fastcc/internal/core"
	"fastcc/internal/tnsbin"
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
// Build entirely and report Stats.BuildTime == 0 with the ShardReused flags
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
// Options are validated eagerly (ErrBadOption); WithTileSize selects the
// eager build, WithThreads its parallelism, and other options are ignored
// here — pass them to the contraction instead.
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
// entirely (Stats.BuildTime == 0 on a full hit). Like SizeBytes it is a
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
	cfg, err := config(opts)
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
	for _, tile := range []uint64{cfg.TileL, cfg.TileR} {
		if tile != 0 {
			s.op.Warm(core.ShardKey{Tile: tile}, cfg.Threads)
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
// shard when the run's tile grid matches, reporting Stats.BuildTime == 0
// and the ShardReused flags on a full hit.
//
// Options behave exactly as on Contract — WithContext cancels cooperatively
// between pipeline stages and at tile-task boundaries, WithTenant charges
// the run's shards to a tenant account — so prepared and one-shot paths are
// interchangeable call-site by call-site.
func ContractPrepared(l, r *Sharded, opts ...Option) (*Tensor, *Stats, error) {
	cfg, err := preparedConfig(l, r, opts)
	if err != nil {
		return nil, nil, err
	}
	return contractSharded(l, r, cfg, 0)
}

// ContractPreparedBTNS is the BTNS result path: ContractPrepared for a
// caller that sends the result on, as the daemon does. It returns the
// output already encoded, the bytes WriteBTNS writes for ContractPrepared's
// result, without building the COO tensor: the engine's output goes
// straight to key order and into the encoder. Options and errors are
// ContractPrepared's, plus one: an output whose index space does not fit in
// a uint64, which BTNS cannot carry, fails with an error wrapping
// ErrBadSpec. Stats.DelinearizeTime reports the key step and the encode,
// which take delinearization's place, and Stats.TotalTime includes them.
func ContractPreparedBTNS(l, r *Sharded, opts ...Option) ([]byte, *Stats, error) {
	cfg, err := preparedConfig(l, r, opts)
	if err != nil {
		return nil, nil, err
	}
	tStart := time.Now()
	out, st, err := core.ContractOperands(l.op, r.op, cfg)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	lDims, rDims := outputDims(l, r)
	keys, vals, _, err := core.OutputKeys(out, lDims, rDims, st.Decision.Kind == AccumDense)
	// The columns hold copies; the triple chunks go straight back to the
	// engine's chunk cache.
	core.RecycleOutput(out)
	if err != nil {
		return nil, nil, err
	}
	data, err := tnsbin.EncodeKeys(slices.Concat(lDims, rDims), keys, vals)
	if err != nil {
		return nil, nil, err
	}
	st.DelinearizeTime = time.Since(t0)
	st.TotalTime = time.Since(tStart)
	return data, st, nil
}

// preparedConfig applies opts for a contraction of two prepared operands
// and checks the Spec their Preshard calls froze.
func preparedConfig(l, r *Sharded, opts []Option) (core.Config, error) {
	cfg, err := config(opts)
	if err != nil {
		return cfg, err
	}
	spec := Spec{CtrLeft: l.modes, CtrRight: r.modes}
	return cfg, spec.Validate(l.t, r.t)
}

// outputDims returns the extents of the output's modes: the left operand's
// external modes, then the right's.
func outputDims(l, r *Sharded) (lDims, rDims []uint64) {
	lDims = make([]uint64, len(l.ext))
	for i, m := range l.ext {
		lDims[i] = l.t.Dims[m]
	}
	rDims = make([]uint64, len(r.ext))
	for i, m := range r.ext {
		rDims[i] = r.t.Dims[m]
	}
	return lDims, rDims
}

// contractSharded runs the shared build/execute pipeline over two prepared
// operands and de-linearizes the output. linearize is the time the caller
// spent matrixizing (zero when the operands were prepared earlier — that is
// the amortization).
func contractSharded(l, r *Sharded, cfg core.Config, linearize time.Duration) (*Tensor, *Stats, error) {
	tStart := time.Now()
	out, st, err := core.ContractOperands(l.op, r.op, cfg)
	if err != nil {
		return nil, nil, err
	}

	// Post-processing: de-linearize the output chunks straight into the
	// result tensor (timed).
	t0 := time.Now()
	lDims, rDims := outputDims(l, r)
	result, ferr := core.DelinearizeOutput(out, lDims, rDims, st.Threads)
	// The result holds copies; the triple chunks go straight back to the
	// engine's chunk cache.
	core.RecycleOutput(out)
	if ferr != nil {
		return nil, nil, ferr
	}
	st.LinearizeTime = linearize
	st.DelinearizeTime = time.Since(t0)
	st.TotalTime = linearize + time.Since(tStart)
	return result, st, nil
}
