package core

import (
	"fastcc/internal/accum"
	"fastcc/internal/coo"
	"fastcc/internal/hashtable"
	"fastcc/internal/model"
)

// worker holds the per-worker reusable accumulator. Exactly one of
// dense/sparse is non-nil: the kernels read the typed field directly so no
// interface dispatch or per-tile type assertion sits on the accumulate path.
type worker struct {
	dense  *accum.Dense
	sparse *accum.Sparse
}

func newWorker(kind model.AccumKind, tl, tr uint64, sparseHint int) *worker {
	switch kind {
	case model.AccumSparse:
		return &worker{sparse: accum.NewSparse(sparseHint)}
	default:
		return &worker{dense: accum.NewDense(uint32(tl), uint32(tr))}
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
