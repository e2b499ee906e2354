package coo

import (
	"fmt"

	"fastcc/internal/scheduler"
)

// ParallelDelinearizeMin is the element count below which de-linearization
// runs on one goroutine whatever the worker count: smaller outputs finish
// before extra goroutines pay for themselves.
const ParallelDelinearizeMin = 1 << 14

// FromPairsP is FromPairs with the de-linearization split over workers in
// equal element ranges — the output post-processing is a measured phase of
// the contraction (paper Section 2.1), and for dense-ish outputs it touches
// more elements than either input. workers <= 1 runs on the caller's
// goroutine.
func FromPairsP(ls, rs []uint64, vals []float64, lDims, rDims []uint64, workers int) (*Tensor, error) {
	if len(ls) != len(rs) || len(ls) != len(vals) {
		return nil, fmt.Errorf("%w: pair arrays of unequal length", ErrShape)
	}
	lsp, err := NewSplitter(lDims)
	if err != nil {
		return nil, err
	}
	rsp, err := NewSplitter(rDims)
	if err != nil {
		return nil, err
	}
	n := len(vals)
	out := Alloc(append(append([]uint64(nil), lDims...), rDims...), n)
	copy(out.Vals, vals)
	lc, rc := out.Coords[:len(lDims)], out.Coords[len(lDims):]
	if workers <= 1 || n < ParallelDelinearizeMin {
		workers = 1
	}
	scheduler.Static(workers, func(w, workers int) {
		lo, hi := w*n/workers, (w+1)*n/workers
		lsp.Split(lc, lo, ls[lo:hi])
		rsp.Split(rc, lo, rs[lo:hi])
	})
	return out, nil
}
