package core

import (
	"fastcc/internal/accum"
	"fastcc/internal/coo"
	"fastcc/internal/hashtable"
	"fastcc/internal/mempool"
	"fastcc/internal/metrics"
	"fastcc/internal/model"
)

// worker holds the per-worker reusable accumulator. Exactly one of
// dense/sparse is non-nil and aliases acc: the specialized kernels read the
// typed field directly so no interface dispatch or per-tile type assertion
// sits on the accumulate path.
type worker struct {
	acc    accum.Accumulator
	dense  *accum.Dense
	sparse *accum.Sparse
}

func newWorker(kind model.AccumKind, tl, tr uint64, sparseHint int) *worker {
	switch kind {
	case model.AccumSparse:
		s := accum.NewSparse(sparseHint)
		return &worker{acc: s, sparse: s}
	default:
		d := accum.NewDense(uint32(tl), uint32(tr))
		return &worker{acc: d, dense: d}
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

// contractTilePair computes one output tile (Algorithm 6): co-iterate the
// contraction keys of the two input tiles, form the outer product of the
// matching slices into the worker's accumulator, then drain to the
// worker-local COO list with global coordinates restored. The sealed
// tables' dense cursor (KeyAt/PairsAt) replaces the seed's ForEach closure:
// the key sweep is a linear walk of two flat arrays with no per-key
// indirection or callback.
//
//fastcc:hotpath
func contractTilePair(hl, hr *hashtable.Sealed, baseL, baseR uint64,
	wk *worker, pool *mempool.Pool[Triple], ctr *metrics.Counters) {

	// Iterate the table with fewer distinct keys and probe the other: the
	// intersection is the same, the query count smaller.
	iter, probeInto, swapped := chooseSides(hl, hr)
	var queries, volume, updates int64
	// Devirtualize the accumulator for the upsert-dominated inner loops:
	// the interface call would otherwise sit on every multiply-accumulate.
	dense, sparse := wk.dense, wk.sparse
	n := iter.Len()
	for di := 0; di < n; di++ {
		queries++
		pps := probeInto.Lookup(iter.KeyAt(di))
		if pps == nil {
			continue
		}
		ips := iter.PairsAt(di)
		volume += int64(len(ips)) + int64(len(pps))
		updates += int64(len(ips)) * int64(len(pps))
		lps, rps := ips, pps
		if swapped {
			// iter is the right tile: ips are r-indices, pps l-indices.
			lps, rps = pps, ips
		}
		switch {
		case dense != nil:
			for _, lp := range lps {
				lv, li := lp.Val, lp.Idx
				for _, rp := range rps {
					dense.Upsert(li, rp.Idx, lv*rp.Val)
				}
			}
		case sparse != nil:
			for _, lp := range lps {
				lv, li := lp.Val, lp.Idx
				for _, rp := range rps {
					sparse.Upsert(li, rp.Idx, lv*rp.Val)
				}
			}
		default:
			acc := wk.acc
			for _, lp := range lps {
				lv, li := lp.Val, lp.Idx
				for _, rp := range rps {
					acc.Upsert(li, rp.Idx, lv*rp.Val)
				}
			}
		}
	}
	ctr.AddQueries(queries)
	ctr.AddVolume(volume)
	ctr.AddUpdates(updates)
	wk.acc.Drain(func(l, r uint32, v float64) { //fastcc:allow hotalloc -- one closure per tile task, outside the per-update loops
		pool.Append(Triple{L: baseL + uint64(l), R: baseR + uint64(r), V: v})
	})
}
