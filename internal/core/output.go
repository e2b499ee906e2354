package core

import (
	"fastcc/internal/coo"
	"fastcc/internal/mempool"
	"fastcc/internal/scheduler"
)

// delinBlock is how many triples delinearizeTriples stages at a time: small
// enough that the index columns it has just written are still in cache when
// the splitters read them back. On BenchmarkDelinearizeOutput (2-vCPU Xeon,
// 7 runs each) staging in blocks ran about 9-10% faster than staging a
// worker's whole range and splitting it in one call on the 8x24x10 and 1956
// shapes at one worker, and no slower on the others.
const delinBlock = 2048

// DelinearizeOutput copies a contraction's output chunks into a new COO
// tensor, the paper's post-processing step (Section 2.1): each triple's L
// index is split over lDims and its R index over rDims. Elements keep chunk
// order, the order List.ForEach visits, and each coordinate array and Vals
// is allocated once at length out.Len(). With workers > 1 and at least
// coo.ParallelDelinearizeMin elements, the copy is split into equal element
// ranges, one goroutine each. out stays the caller's: RecycleOutput it once
// this returns.
func DelinearizeOutput(out *mempool.List[Triple], lDims, rDims []uint64, workers int) (*coo.Tensor, error) {
	lsp, err := coo.NewSplitter(lDims)
	if err != nil {
		return nil, err
	}
	rsp, err := coo.NewSplitter(rDims)
	if err != nil {
		return nil, err
	}
	n := out.Len()
	t := coo.Alloc(append(append([]uint64(nil), lDims...), rDims...), n)
	chunks := out.Chunks()
	if workers <= 1 || n < coo.ParallelDelinearizeMin {
		workers = 1
	}
	scheduler.Static(workers, func(w, workers int) {
		// Element range [lo, hi), mapped onto the chunks by their running
		// prefix offset.
		lo, hi := w*n/workers, (w+1)*n/workers
		off := 0
		for _, c := range chunks {
			if a, b := max(lo, off), min(hi, off+len(c)); a < b {
				delinearizeTriples(t, len(lDims), lsp, rsp, c[a-off:b-off], a)
			}
			off += len(c)
		}
	})
	return t, nil
}

// delinearizeTriples writes ts to t's elements [at, at+len(ts)): values
// directly, and each index into its side's mode-0 column, which the side's
// splitter then splits in place. The first nl modes of t are the left side.
//
//fastcc:hotpath
func delinearizeTriples(t *coo.Tensor, nl int, lsp, rsp *coo.Splitter, ts []Triple, at int) {
	lc, rc := t.Coords[:nl], t.Coords[nl:]
	for len(ts) > 0 {
		blk := ts[:min(len(ts), delinBlock)]
		vs := t.Vals[at : at+len(blk)]
		for i := range blk {
			vs[i] = blk[i].V
		}
		// A side with no modes has no column; its index is always 0.
		if len(lc) > 0 {
			col := lc[0][at : at+len(blk)]
			for i := range blk {
				col[i] = blk[i].L
			}
			lsp.Split(lc, at, col)
		}
		if len(rc) > 0 {
			col := rc[0][at : at+len(blk)]
			for i := range blk {
				col[i] = blk[i].R
			}
			rsp.Split(rc, at, col)
		}
		ts, at = ts[len(blk):], at+len(blk)
	}
}
