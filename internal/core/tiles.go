package core

import (
	"fastcc/internal/accum"
	"fastcc/internal/coo"
	"fastcc/internal/hashtable"
	"fastcc/internal/mempool"
	"fastcc/internal/model"
)

// worker holds the per-worker reusable accumulator. Exactly one of
// dense/sparse is non-nil: the kernels read the typed field directly so no
// interface dispatch or per-tile type assertion sits on the accumulate path.
// rmajor and runs are set each time a run claims the worker. runs marks a
// two-shard dense run, whose tiles scatter with ScatterRuns; a
// self-contraction keeps ScatterMatches. Under rmajor (see rMajor) the
// dense tile's rows are R-tile indices, so the dense kernels swap each
// match's runs and drain swaps the coordinates back.
type worker struct {
	dense  *accum.Dense
	sparse *accum.Sparse
	rmajor bool
	runs   bool
}

// newWorker returns a worker whose accumulator has the given rows × cols
// shape: TileL × TileR, or TileR × TileL for an R-major dense run.
func newWorker(kind model.AccumKind, rows, cols uint64, sparseHint int) *worker {
	switch kind {
	case model.AccumSparse:
		return &worker{sparse: accum.NewSparse(sparseHint)}
	default:
		return &worker{dense: accum.NewDense(uint32(rows), uint32(cols))}
	}
}

// scatter accumulates a batch of matches into the worker's accumulator:
// ScatterRuns on a two-shard dense run, ScatterMatches otherwise. The
// dense kernels and a self-contraction's diagonal pairs come through here;
// the sparse kernels call ScatterMatches directly. Under rmajor the caller
// has already swapped each match's runs.
func (wk *worker) scatter(ms []accum.Match) {
	switch {
	case wk.sparse != nil:
		wk.sparse.ScatterMatches(ms)
	case wk.runs:
		wk.dense.ScatterRuns(ms)
	default:
		wk.dense.ScatterMatches(ms)
	}
}

// drain empties the worker's accumulator into pool after a tile task,
// offsetting the intra-tile coordinates by the tile bases. With mirror set
// every triple is also appended transposed, as (r, l): in a
// self-contraction O = A·Aᵀ is symmetric, so that is the value of the
// lower-triangle tile pair the schedule skipped. An R-major tile drains
// (r, l) and is swapped back; mirror and rmajor never meet, since only
// two-shard runs are R-major.
func (wk *worker) drain(pool *mempool.Pool[Triple], baseL, baseR uint64, mirror bool) {
	emit := func(l, r uint32, v float64) {
		pool.Append(Triple{L: baseL + uint64(l), R: baseR + uint64(r), V: v})
	}
	switch {
	case mirror:
		emit = func(l, r uint32, v float64) {
			gl, gr := baseL+uint64(l), baseR+uint64(r)
			pool.Append(Triple{L: gl, R: gr, V: v})
			pool.Append(Triple{L: gr, R: gl, V: v})
		}
	case wk.rmajor:
		emit = func(r, l uint32, v float64) {
			pool.Append(Triple{L: baseL + uint64(l), R: baseR + uint64(r), V: v})
		}
	}
	if wk.dense != nil {
		wk.dense.Drain(emit)
	} else {
		wk.sparse.Drain(emit)
	}
}

// tileNNZHint sizes the sparse accumulator from the model's expected
// nonzeros per tile, bounded to keep initial allocations modest.
func tileNNZHint(dec model.Decision, tl, tr uint64) int {
	e := dec.PNonzero * float64(tl) * float64(tr)
	switch {
	case !(e >= 64):
		// Covers e < 64 AND a NaN expectation (PNonzero NaN or zero-extent
		// degenerate input): every comparison with NaN is false, so the old
		// `e < 64` fallthrough reached int(NaN) — implementation-defined.
		return 64
	case e > 1<<22:
		return 1 << 22
	default:
		return int(e)
	}
}

// buildSealedTiles builds the sealed hash tables of the non-empty tiles this
// worker owns (idx mod teamSize == w over the partition's non-empty list).
// Each tile's nonzeros sit in a contiguous partition segment, so a worker
// reads only the bytes of its own tiles — no scan-and-filter over the whole
// operand — and hands that segment straight to hashtable.BuildSealed, sized
// from the model's distinct-key estimate (its hint is a KEY count, not a
// pair count).
//
// Workers write disjoint slots of tables, so no synchronization is needed
// beyond the team barrier.
//
//fastcc:hotpath
func buildSealedTiles(tables []*hashtable.Sealed, part *coo.TilePartition, ctrDim uint64, w, teamSize int) {
	ne := part.NonEmpty()
	for idx := w; idx < len(ne); idx += teamSize {
		i := ne[idx]
		lo, hi := part.Offs[i], part.Offs[i+1]
		tables[i] = hashtable.BuildSealed(part.Ctr[lo:hi], part.Intra[lo:hi], part.Val[lo:hi],
			model.ExpectedDistinctKeys(hi-lo, ctrDim))
	}
}
