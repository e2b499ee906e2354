package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"fastcc/internal/coo"
	"fastcc/internal/mempool"
	"fastcc/internal/radix"
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

// OutputKeys turns a contraction's output into BTNS key and value columns:
// key l·|R| + r for each triple, strictly ascending, where |R| is the product
// of rDims. With the output modes ordered L then R that is the linearized
// coordinate BTNS stores. out stays the caller's: RecycleOutput it once this
// returns. An output whose index space |L|·|R| does not fit in a uint64,
// the bound of a BTNS key, is an error wrapping coo.ErrBadSpec: the spec
// kept more external extent than one key can address.
//
// A dense run lists each output row's cells in ascending r (see tileOrder),
// so one stable counting sort by l orders it; counted reports that path.
// It is taken when |L| <= nnz, which keeps the count array no larger than
// the output. Every other run, and a dense run whose counting sort fails
// the ascent check, takes a radix sort.
func OutputKeys(out *mempool.List[Triple], lDims, rDims []uint64, dense bool) (keys []uint64, vals []float64, counted bool, err error) {
	nL, errL := coo.LinearSize(lDims)
	nR, errR := coo.LinearSize(rDims)
	if hi, _ := bits.Mul64(nL, nR); errL != nil || errR != nil || hi != 0 {
		return nil, nil, false, fmt.Errorf("%w: output index space %v × %v exceeds the uint64 bound of a BTNS key", coo.ErrBadSpec, lDims, rDims)
	}
	n := out.Len()
	keys, vals = make([]uint64, n), make([]float64, n)
	if dense && nL <= uint64(n) {
		countByRow(out, nR, make([]int, nL), keys, vals)
		if strictlyAscending(keys) {
			return keys, vals, true, nil
		}
	}
	radixKeys(out, nR, keys, vals)
	return keys, vals, false, nil
}

// countByRow writes out's keys and values into keys and vals, stably
// ordered by l; next has one entry per row.
func countByRow(out *mempool.List[Triple], nR uint64, next []int, keys []uint64, vals []float64) {
	for _, c := range out.Chunks() {
		for _, t := range c {
			next[t.L]++
		}
	}
	at := 0
	for l, k := range next {
		next[l] = at
		at += k
	}
	for _, c := range out.Chunks() {
		for _, t := range c {
			p := next[t.L]
			next[t.L]++
			keys[p], vals[p] = t.L*nR+t.R, t.V
		}
	}
}

// radixKeys writes out's keys and values into keys and vals in ascending
// key order.
func radixKeys(out *mempool.List[Triple], nR uint64, keys []uint64, vals []float64) {
	if len(keys) > 1<<32 {
		// The radix permutation is uint32: sort a copy of the triples.
		ts := make([]Triple, 0, len(keys))
		for _, c := range out.Chunks() {
			ts = append(ts, c...)
		}
		slices.SortFunc(ts, func(a, b Triple) int { return cmp.Compare(a.L*nR+a.R, b.L*nR+b.R) })
		for i, t := range ts {
			keys[i], vals[i] = t.L*nR+t.R, t.V
		}
		return
	}
	src := make([]float64, 0, len(vals))
	for _, c := range out.Chunks() {
		for _, t := range c {
			keys[len(src)] = t.L*nR + t.R
			src = append(src, t.V)
		}
	}
	perm := make([]uint32, len(keys))
	for i := range perm {
		perm[i] = uint32(i)
	}
	// One worker: in the daemon the key step runs beside other requests'
	// contractions.
	radix.SortWithPerm(keys, perm, 1)
	for p, i := range perm {
		vals[p] = src[i]
	}
}

// strictlyAscending reports whether every key exceeds the one before it.
func strictlyAscending(keys []uint64) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return false
		}
	}
	return true
}
