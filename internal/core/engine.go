// Package core implements the FaSTCC contraction engine (paper Section 4):
// a 2D-tiled contraction-index-outer scheme. The output index space L×R is
// partitioned into NL×NR tiles; the inputs are sharded into per-tile
// open-addressing hash tables keyed by the contraction index; tile–tile
// contractions run as dynamically scheduled parallel tasks, each
// accumulating into a worker-local dense or sparse tile and draining into a
// worker-local chunked COO list that is finally concatenated by reference,
// in tile order.
//
// The engine is split into three explicit stages so the Build phase can be
// amortized across repeated contractions (the prepared-operand API):
//
//   - plan: run the probabilistic model and resolve tile sizes (Algorithm 7);
//   - build: fetch or construct each operand's tile shard (Algorithm 5),
//     memoized per Operand under the ShardKey compatibility contract;
//   - execute: run the tile-task contraction, accumulate, drain, concat
//     (Algorithm 6).
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"fastcc/internal/accum"
	"fastcc/internal/coo"
	"fastcc/internal/mempool"
	"fastcc/internal/metrics"
	"fastcc/internal/model"
	"fastcc/internal/scheduler"
)

// Triple is one output nonzero in matrixized coordinates.
type Triple struct {
	L, R uint64
	V    float64
}

// Config controls one contraction run. The zero value asks for model-chosen
// tiles and accumulator on the Auto platform with GOMAXPROCS workers.
type Config struct {
	// Threads is the worker count; <= 0 means GOMAXPROCS.
	Threads int
	// TileL/TileR override the model's tile sizes when nonzero. TileR must
	// be a power of two when a dense accumulator is used.
	TileL, TileR uint64
	// Accum forces the accumulator kind; AccumAuto defers to the model.
	Accum model.AccumKind
	// Platform supplies cache and core parameters for the model; the zero
	// value selects model.Auto().
	Platform model.Platform
	// Counters, when non-nil, collects data-access statistics.
	Counters *metrics.Counters
	// Tenant, when non-empty, charges every shard this run builds or reuses
	// to the named tenant's cache account (tenant.go): the shard bytes count
	// against the tenant's quota, quota overruns are settled by evicting the
	// tenant's own cold shards when the run's pins drop, and the global
	// eviction policy prefers over-quota tenants' shards. Empty leaves the
	// run untenanted (shards unclaimed, global budget only).
	Tenant string
	// TenantSet marks Tenant as named by the caller, so Validate rejects an
	// empty name instead of reading it as untenanted.
	TenantSet bool
	// Context, when non-nil, cancels the run cooperatively: it is checked
	// between stages and at tile-task boundaries, and the run returns
	// Context.Err() wrapped.
	Context context.Context
}

func (c Config) ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// ErrBadOption matches an invalid or conflicting Config (see Validate),
// and a tile override that conflicts with the accumulator the model picks.
var ErrBadOption = errors.New("fastcc: bad option")

// Validate reports an invalid or conflicting Config with an error wrapping
// ErrBadOption. It checks everything knowable from the Config alone; plan
// checks the dense-tile bound again once the model has picked the
// accumulator.
func (c Config) Validate() error {
	if c.Threads < 0 {
		return fmt.Errorf("%w: %d threads is negative (0 means GOMAXPROCS)", ErrBadOption, c.Threads)
	}
	if c.TileL > 1<<31 || c.TileR > 1<<31 {
		return fmt.Errorf("%w: tile %dx%d exceeds the 2^31 tile-side bound", ErrBadOption, c.TileL, c.TileR)
	}
	switch c.Accum {
	case model.AccumAuto, model.AccumSparse:
	case model.AccumDense:
		if err := checkDenseTile(c.TileL, c.TileR); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: accumulator %d is not a known kind", ErrBadOption, int(c.Accum))
	}
	if c.Platform != (model.Platform{}) {
		if err := c.Platform.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadOption, err)
		}
	}
	if c.TenantSet || c.Tenant != "" {
		return ValidTenant(c.Tenant)
	}
	return nil
}

// checkDenseTile reports a tile the dense accumulator cannot address: the
// right side must be a power of two and the tile at most 2^31 positions.
// A zero side is model-chosen and passes. Sides are at most 2^31, so the
// product cannot wrap.
func checkDenseTile(tl, tr uint64) error {
	if tr&(tr-1) != 0 {
		return fmt.Errorf("%w: a dense accumulator needs a power-of-two right tile side, got %d", ErrBadOption, tr)
	}
	if tl*tr > 1<<31 {
		return fmt.Errorf("%w: dense tile %dx%d exceeds addressable positions", ErrBadOption, tl, tr)
	}
	return nil
}

// Stats reports everything one contraction run decided and measured.
type Stats struct {
	// Decision is the probabilistic model's output (densities, expected
	// tile nonzeros, accumulator kind, tile sizes).
	Decision model.Decision
	// TileL, TileR are the tile sizes actually used; NL, NR the tile-grid
	// dimensions.
	TileL, TileR uint64
	NL, NR       int
	Threads      int
	// Tasks is the number of tile-pair contractions run: every pair of
	// nonempty input tiles, or on the symmetric schedule (Symmetric) the
	// nT·(nT+1)/2 pairs of the grid's upper triangle, diagonal included.
	Tasks int
	// Symmetric reports that the run took the self-contraction schedule:
	// one shard on both sides, so only the upper triangle of the tile grid
	// ran and each off-diagonal pair also wrote its transpose.
	Symmetric bool
	// RMajor reports the dense tile layout of a two-operand run: the
	// tile's rows were R-tile indices, so the left operand's key runs
	// (nonzeros per distinct contraction index in a tile), longer on
	// average than the right's and than accum.RunMin, were the inner runs
	// along which accum.Dense.ScatterRuns marks touched cells. It stays
	// false on sparse and symmetric runs.
	RMajor bool
	// BlockL, BlockR are the LLC super-block sides (in non-empty tiles) the
	// contract schedule used; Blocks is the resulting block-task count. A
	// worker claims one whole block at a time and walks it L-outer/R-inner,
	// so each R panel is fetched from DRAM once and reused BlockL times.
	BlockL, BlockR, Blocks int
	// OutputNNZ is the number of output nonzeros produced.
	OutputNNZ int
	// ShardReusedL/ShardReusedR report that the operand's tile shard was
	// served from an Operand's cache instead of being built; ShardReused is
	// the full hit (both sides), in which case BuildTime is zero.
	ShardReusedL, ShardReusedR bool
	ShardReused                bool
	// Phase timings. The root package's entry points fill LinearizeTime,
	// DelinearizeTime and TotalTime, the steps they own; TotalTime is the
	// wall time of the whole run, linearize and delinearize included as in
	// the paper. On the BTNS result path (ContractPreparedBTNS)
	// DelinearizeTime is the key step and the encode that replace
	// delinearization. DrainTime is the workers' summed time emptying their
	// accumulators into the output pools, the drain sub-phase of
	// ContractTime; with more than one worker it can exceed ContractTime's
	// wall time.
	LinearizeTime   time.Duration
	BuildTime       time.Duration
	ContractTime    time.Duration
	DrainTime       time.Duration
	ConcatTime      time.Duration
	DelinearizeTime time.Duration
	TotalTime       time.Duration
	// Counters snapshots Config.Counters at the end of the run (zero when
	// none were given).
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
	sched := ""
	if s.Symmetric {
		sched = " sym"
	}
	if s.RMajor {
		sched += " rmajor"
	}
	return fmt.Sprintf(
		"fastcc: accumulator=%s tile=%dx%d grid=%dx%d tasks=%d%s block=%dx%d threads=%d out_nnz=%d%s\n"+
			"fastcc: total=%v (linearize=%v build=%v contract=%v [drain=%v] concat=%v delinearize=%v)",
		s.Decision.Kind, s.TileL, s.TileR, s.NL, s.NR, s.Tasks, sched, s.BlockL, s.BlockR, s.Threads, s.OutputNNZ, reuse,
		s.TotalTime, s.LinearizeTime, s.BuildTime, s.ContractTime, s.DrainTime, s.ConcatTime, s.DelinearizeTime)
}

// outputChunks recycles the chunk storage of output triple lists across
// runs; RecycleOutput returns a consumed run's chunks here.
var outputChunks = mempool.NewChunkCache[Triple](0)

// accKey is the accumulator-shape compatibility key for worker recycling:
// the accumulator's kind and its (rows, cols) shape, which an R-major run
// transposes.
type accKey struct {
	kind       model.AccumKind
	rows, cols uint64
}

// workerFree parks per-worker accumulators between runs so repeated
// contractions with the same tile shape stop reallocating tile-sized
// buffers.
var workerFree = mempool.NewFreelist[accKey, *worker](0)

// ContractOperands runs the tiled-CO contraction O[l,r] = Σ_c L[l,c]·R[c,r]
// on two shard-caching operands and returns the output as a concatenated
// chunk list of triples. Each side's Build phase is skipped when the
// operand already holds a shard compatible with this run's plan (same tile
// side). Passing the same *Operand on both sides of a
// self-contraction shards it exactly once. A Config that fails Validate is
// rejected before any work runs. A tile task that panics fails the run with
// an error wrapping scheduler.ErrTaskPanic, and the process goes on.
func ContractOperands(l, r *Operand, cfg Config) (*mempool.List[Triple], *Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Platform == (model.Platform{}) {
		cfg.Platform = model.Auto()
	}
	threads := scheduler.Workers(cfg.Threads)
	st := &Stats{Threads: threads}

	dec, err := plan(l.Mat, r.Mat, cfg)
	if err != nil {
		return nil, nil, err
	}
	st.Decision = dec
	tl, tr := dec.TileL, dec.TileR
	st.TileL, st.TileR = tl, tr
	st.NL = int((l.Mat.ExtDim + tl - 1) / tl)
	st.NR = int((r.Mat.ExtDim + tr - 1) / tr)

	if err := cfg.ctx().Err(); err != nil {
		return nil, nil, canceled(err)
	}

	// Build stage: fetch or construct the two shards. BuildTime stays zero
	// on a full cache hit — the amortization the prepared-operand API
	// exists to deliver. Both shards come back pinned; the run-level pins
	// are released when the run ends (a self-contraction holds one pin on
	// its single shard), after execute's pool has joined every worker, so
	// eviction never reaches tables a tile kernel is reading.
	ls, rs, builtL, builtR := buildShards(l, r, ShardKey{Tile: tl}, ShardKey{Tile: tr}, threads, st)
	st.ShardReusedL, st.ShardReusedR = !builtL, !builtR
	st.ShardReused = !builtL && !builtR
	if cfg.Tenant != "" {
		// Charge both shards to the run's tenant while the run pins protect
		// them.
		claimShard(ls, cfg.Tenant, builtL)
		if rs != ls {
			claimShard(rs, cfg.Tenant, builtR)
		}
	}
	// Settle the tenant's quota and the global budget as the run's LAST
	// deferred step (registered before the Unpins, so it runs after them):
	// once the pins drop, the enforcement pass can see this run's own
	// shards.
	defer shardLRU.settle(cfg.Tenant)
	defer ls.Unpin()
	if rs != ls {
		defer rs.Unpin()
	}

	if err := cfg.ctx().Err(); err != nil {
		return nil, nil, canceled(err)
	}

	return execute(ls, rs, dec, threads, cfg, st)
}

// canceled wraps a context error so callers can errors.Is against
// context.Canceled / DeadlineExceeded while seeing the engine frame.
func canceled(err error) error {
	return fmt.Errorf("core: contraction canceled: %w", err)
}

// plan runs the model decision (Algorithm 7), applies overrides, and
// checks the resulting tile against the accumulator the model picked.
func plan(l, r *coo.Matrix, cfg Config) (model.Decision, error) {
	if l.ExtDim == 0 || r.ExtDim == 0 || l.CtrDim == 0 {
		return model.Decision{}, fmt.Errorf("core: zero-extent operand (L=%d, R=%d, C=%d)", l.ExtDim, r.ExtDim, l.CtrDim)
	}
	if l.CtrDim != r.CtrDim {
		return model.Decision{}, fmt.Errorf("core: contraction extents differ (%d vs %d)", l.CtrDim, r.CtrDim)
	}
	in := model.Inputs{
		NNZL: int64(l.NNZ()), NNZR: int64(r.NNZ()),
		LDim: l.ExtDim, RDim: r.ExtDim, CDim: l.CtrDim,
	}
	dec, err := model.Decide(in, cfg.Platform)
	if err != nil {
		return model.Decision{}, err
	}
	dec = dec.ForceKind(cfg.Accum, in, cfg.Platform)
	if cfg.TileL != 0 {
		dec.TileL = cfg.TileL
	}
	if cfg.TileR != 0 {
		dec.TileR = cfg.TileR
	}
	if dec.Kind == model.AccumDense {
		if err := checkDenseTile(dec.TileL, dec.TileR); err != nil {
			return model.Decision{}, err
		}
	}
	return dec, nil
}

// buildShards fetches or builds both operands' shards. When both need
// building they share the worker budget (the paper's two build teams,
// Section 4.2); when one side is already cached, the other gets every
// worker. A self-contraction sharing one Operand with one key builds once.
func buildShards(l, r *Operand, keyL, keyR ShardKey, threads int, st *Stats) (ls, rs *Shard, builtL, builtR bool) {
	t0 := time.Now()
	if l == r && keyL == keyR {
		ls, builtL = l.Shard(keyL, threads)
		rs = ls
	} else {
		thL := (threads + 1) / 2
		thR := threads - thL
		if thR == 0 {
			thR = 1
		}
		if l.Cached(keyL) {
			thR = threads
		}
		if r.Cached(keyR) {
			thL = threads
		}
		done := make(chan struct{})
		go func() {
			rs, builtR = r.Shard(keyR, thR)
			close(done)
		}()
		ls, builtL = l.Shard(keyL, thL)
		<-done
	}
	if builtL || builtR {
		st.BuildTime = time.Since(t0)
	}
	return ls, rs, builtL, builtR
}

// execute runs the tile-task contraction over two built shards: steps 2-4
// of the paper's pipeline (contract, accumulate, drain) plus the final
// concatenation by reference.
//
// One shard on both sides (ls == rs, a self-contraction sharded once) takes
// the symmetric schedule: O = A·Aᵀ, so tile pair (j, i) is the transpose of
// (i, j). Only the pairs with jj >= ii run; an off-diagonal pair drains each
// triple twice, as (l, r) and as (r, l), and a diagonal pair, whose two
// sides are one table, matches each key with itself instead of probing.
func execute(ls, rs *Shard, dec model.Decision, threads int, cfg Config, st *Stats) (*mempool.List[Triple], *Stats, error) {
	tl, tr := dec.TileL, dec.TileR
	nonEmptyL := ls.NonEmpty()
	nonEmptyR := rs.NonEmpty()
	nL, nR := len(nonEmptyL), len(nonEmptyR)
	sym := ls == rs
	st.Symmetric = sym
	st.Tasks = nL * nR
	if sym {
		st.Tasks = nL * (nL + 1) / 2
	}

	rmajor := dec.Kind == model.AccumDense && !sym && rMajor(ls, rs, tl)
	st.RMajor = rmajor
	rows, cols := tl, tr
	if rmajor {
		rows, cols = tr, tl
	}

	t0 := time.Now()
	pools := make([]*mempool.Pool[Triple], threads)
	workers := make([]*worker, threads)
	drainTimes := make([]time.Duration, threads)
	segs := make([][]segment, threads)
	wkey := accKey{kind: dec.Kind, rows: rows, cols: cols}
	sparseHint := tileNNZHint(dec, tl, tr)

	// LLC-blocked schedule: the nL×nR task grid is cut into BL×BR
	// super-blocks sized so one block's input panels fit in a worker share
	// of the last-level cache (model.BlockShape). Each atomic claim takes
	// one whole block, which the worker walks L-outer/R-inner, so a BR-tile
	// R panel is streamed from DRAM once and reused BL times from cache.
	// The unblocked schedule this replaces walked the grid i-major,
	// re-streaming the entire R shard through the LLC for every L tile.
	bl, br := model.BlockShape(cfg.Platform, ls.TileBytes(), rs.TileBytes(), nL, nR, threads)
	nbL, nbR := 0, 0
	if nL > 0 && nR > 0 {
		nbL, nbR = (nL+bl-1)/bl, (nR+br-1)/br
	}
	// Block row bi starts at block column firstBJ(bi). The symmetric
	// schedule skips the blocks that lie wholly below the diagonal: the
	// first block column holding a task with jj >= bi*bl is bi*bl/br.
	// rowStart[bi] numbers the blocks claimed before block row bi.
	firstBJ := func(bi int) int {
		if sym {
			return bi * bl / br
		}
		return 0
	}
	rowStart := make([]int, nbL+1)
	for bi := 0; bi < nbL; bi++ {
		rowStart[bi+1] = rowStart[bi] + nbR - firstBJ(bi)
	}
	blocksTotal := rowStart[nbL]
	st.BlockL, st.BlockR, st.Blocks = bl, br, blocksTotal
	ctx := cfg.ctx()
	err := scheduler.PoolCtx(ctx, threads, blocksTotal, func(w, b int) {
		wk := workers[w]
		if wk == nil {
			if parked, ok := workerFree.Get(wkey); ok {
				wk = parked
			} else {
				wk = newWorker(dec.Kind, rows, cols, sparseHint)
				// Bind the fresh accumulator to its shape key so a future
				// Put under any other key is a provenance panic in checked
				// builds, not a wrong-shaped vend.
				workerFree.Note(wkey, wk)
			}
			wk.rmajor = rmajor
			workers[w] = wk
			pools[w] = outputChunks.NewPool()
		}
		bi := sort.Search(nbL, func(k int) bool { return rowStart[k+1] > b })
		bj := firstBJ(bi) + b - rowStart[bi]
		iEnd, jEnd := min((bi+1)*bl, nL), min((bj+1)*br, nR)
		for ii := bi * bl; ii < iEnd; ii++ {
			i := nonEmptyL[ii]
			baseL := uint64(i) * tl
			jj := bj * br
			if sym && jj < ii {
				jj = ii
			}
			for ; jj < jEnd; jj++ {
				// Cancellation is observed at tile-task boundaries even
				// inside a block, so the latency to stop is one task, not
				// one block.
				if ctx.Err() != nil {
					return
				}
				j := nonEmptyR[jj]
				diag := sym && jj == ii
				if diag {
					scatterDiagonal(ls.sealedAt(i), wk, cfg.Counters)
				} else {
					listL, listR := sharedLists(ls, rs, i, j)
					contractPair(ls.sealedAt(i), rs.sealedAt(j), listL, listR, wk, cfg.Counters)
				}
				td := time.Now()
				lo := pools[w].Len()
				wk.drain(pools[w], baseL, uint64(j)*tr, sym && !diag)
				if hi := pools[w].Len(); hi > lo {
					segs[w] = append(segs[w], segment{ii, jj, mempool.Span{Pool: w, Lo: lo, Hi: hi}})
				}
				drainTimes[w] += time.Since(td)
			}
		}
	})
	// Accumulators drain at the end of every task, so canceled or not they
	// are empty and safe to park for the next run. A task that panicked
	// left its worker's tile half-scattered, so that run parks none. The
	// pool hands out no more workers than blocks, so only the workers that
	// claimed a block hold an accumulator.
	panicked := errors.Is(err, scheduler.ErrTaskPanic)
	claimed := 0
	for _, wk := range workers {
		if wk != nil {
			if !panicked {
				workerFree.Put(wkey, wk)
			}
			claimed++
		}
	}
	if err != nil {
		// Partial output is discarded; hand its chunks straight back.
		outputChunks.Release(mempool.Concat(pools...))
		if panicked {
			return nil, nil, fmt.Errorf("core: tile task failed: %w", err)
		}
		return nil, nil, canceled(err)
	}
	st.ContractTime = time.Since(t0)
	for _, d := range drainTimes {
		st.DrainTime += d
	}

	// Final step: concatenate thread-local lists by pointer movement, one
	// segment per task in (ii, jj) order, so the element order depends on
	// the inputs and the plan, not on which worker ran which task.
	t0 = time.Now()
	out := mempool.ConcatSpans(pools, tileOrder(segs))
	st.ConcatTime = time.Since(t0)
	st.OutputNNZ = out.Len()
	cfg.Counters.AddOutput(int64(out.Len()))
	if dec.Kind == model.AccumDense {
		cfg.Counters.MaxWorkspace(int64(tl) * int64(tr) * int64(claimed))
	}
	st.Counters = cfg.Counters.Snapshot()
	return out, st, nil
}

// segment is one tile task's output: the elements of its worker's pool
// that task (ii, jj), positions in the nonempty-tile lists, drained.
type segment struct {
	ii, jj int
	span   mempool.Span
}

// tileOrder returns every worker's segments as spans in (ii, jj) order.
//
// In a dense run that order lists each output row's cells in ascending r,
// the precondition of OutputKeys' counting sort. A dense tile drains in
// ascending position: a row-major one in (l, r) order, an R-major one in
// (r, l) order, and a mirrored batch in the (r', l') order of the tile it
// transposes, so within one segment each row's cells ascend in r. A tile
// row's tasks sort by ascending column. On the symmetric schedule, the
// mirrored cells of tile row t come from tasks (ii, t) with ii < t, which
// sort before row t's own tasks (t, jj >= t).
func tileOrder(segs [][]segment) []mempool.Span {
	all := slices.Concat(segs...)
	slices.SortFunc(all, func(a, b segment) int {
		return cmp.Or(cmp.Compare(a.ii, b.ii), cmp.Compare(a.jj, b.jj))
	})
	spans := make([]mempool.Span, len(all))
	for k, sg := range all {
		spans[k] = sg.span
	}
	return spans
}

// rMajor reports whether a two-shard dense run lays its tiles out R-major,
// with R-tile indices as rows, so that ScatterRuns runs along the left
// shard's key runs. It does when the left shard's average key run (pairs
// per distinct key) is longer than the right's and reaches accum.RunMin,
// and TileL, the R-major row width, is a power of two of at least
// accum.RunCols. Otherwise the tile stays row-major, and ScatterRuns hands
// matches whose right runs are short to the per-update loop.
func rMajor(ls, rs *Shard, tl uint64) bool {
	// Average runs compared by cross-multiplying: pairsL/keysL > pairsR/keysR.
	pl, kl := int64(ls.pairs), int64(ls.keys)
	pr, kr := int64(rs.pairs), int64(rs.keys)
	return tl >= accum.RunCols && tl&(tl-1) == 0 && pl*kr > pr*kl && pl >= accum.RunMin*kl
}

// RecycleOutput returns the chunk storage of a contraction result to the
// engine's chunk cache so the next run reuses it. Call only after every
// triple has been copied out of the list; the chunks are overwritten by
// future runs.
func RecycleOutput(l *mempool.List[Triple]) { outputChunks.Release(l) }
